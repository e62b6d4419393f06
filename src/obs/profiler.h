// Sampling self-profiler: SIGPROF wall-in of where the process burns
// CPU, served as collapsed folded stacks ready for flamegraph tooling.
//
// Collection model. CollectFolded(seconds) installs a SIGPROF handler,
// arms setitimer(ITIMER_PROF) at the configured rate, sleeps out the
// window, disarms, and symbolizes. ITIMER_PROF ticks on consumed CPU
// time and the kernel delivers SIGPROF to a currently-running thread,
// so samples land on whichever threads are actually hot (the batch
// thread under query load, the IO thread under connection churn) — an
// idle process yields few or no samples by design.
//
// Signal safety. The handler does the minimum: claim a slot in a
// preallocated sample ring with one relaxed fetch_add, capture raw
// program counters with backtrace(3), publish with a release counter.
// No allocation, no locks, no formatting. backtrace() itself is
// pre-warmed at construction (its first call may load libgcc with
// malloc — after that glibc's implementation is allocation-free).
// Symbolization (dladdr + demangling) runs lazily on the collecting
// thread after the timer is disarmed, never in signal context.
//
// One collection at a time: concurrent CollectFolded calls serialize on
// an internal mutex, so concurrent /profilez scrapes queue instead of
// fighting over the process-wide itimer. Cost when idle is zero — no
// timer, no handler, nothing on any hot path.

#ifndef LATEST_OBS_PROFILER_H_
#define LATEST_OBS_PROFILER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace latest::obs {

class Profiler {
 public:
  struct Options {
    /// Samples per second of consumed CPU time. 97 (prime) avoids
    /// lockstep with millisecond-periodic work like the batch tick.
    int hz = 97;
    /// Sample ring capacity; collection stops recording (but keeps
    /// counting) once full.
    size_t max_samples = 8192;
    /// Frames captured per sample.
    static constexpr size_t kMaxDepth = 48;
  };

  Profiler();  // Default options.
  explicit Profiler(Options options);
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;
  ~Profiler();

  /// Samples the process for `seconds` of wall time, then returns the
  /// profile as folded stacks: one line per distinct stack,
  /// "outermost;...;leaf count\n", sorted by count descending. Returns
  /// an empty string when the process consumed no CPU in the window.
  /// Blocks the calling thread for the whole window.
  std::string CollectFolded(double seconds);

 private:
  struct Sample {
    int32_t depth = 0;
    void* pc[Options::kMaxDepth];
  };

  static void SigprofHandler(int signum);
  std::string Symbolize(size_t produced);

  const Options options_;
  std::vector<Sample> ring_;
  std::atomic<size_t> claimed_{0};    // Slots handed to handlers.
  std::atomic<size_t> published_{0};  // Slots fully written.
  std::atomic<bool> armed_{false};

  std::mutex collect_mu_;  // One collection at a time.
};

/// Installs (or clears, with null) the process-global profiler used by
/// /profilez. The caller keeps ownership; the SIGPROF handler consults
/// this pointer, so clear it before destruction.
void SetProfiler(Profiler* profiler);
Profiler* GetProfiler();

}  // namespace latest::obs

#endif  // LATEST_OBS_PROFILER_H_
