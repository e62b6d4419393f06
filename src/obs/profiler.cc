#include "obs/profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>
#include <unordered_map>
#include <utility>

namespace latest::obs {

namespace {

std::atomic<Profiler*> g_profiler{nullptr};

/// Best-effort symbol for one return address: demangled function name
/// when the dynamic symbol table has it, else the raw address.
std::string SymbolFor(void* pc) {
  Dl_info info;
  if (dladdr(pc, &info) != 0 && info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) {
      std::string out(demangled);
      std::free(demangled);
      // Folded-stack separators are ';' and ' '; scrub both.
      for (char& c : out) {
        if (c == ';' || c == ' ') c = '_';
      }
      return out;
    }
    if (demangled != nullptr) std::free(demangled);
    return info.dli_sname;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%zx",
                reinterpret_cast<size_t>(pc));
  return buffer;
}

}  // namespace

void SetProfiler(Profiler* profiler) {
  g_profiler.store(profiler, std::memory_order_release);
}

Profiler* GetProfiler() {
  return g_profiler.load(std::memory_order_acquire);
}

Profiler::Profiler() : Profiler(Options()) {}

Profiler::Profiler(Options options) : options_(options) {
  ring_.resize(std::max<size_t>(1, options_.max_samples));
  // First backtrace() call may dlopen libgcc (which allocates); do it
  // now so the signal handler never does.
  void* warmup[4];
  backtrace(warmup, 4);
}

Profiler::~Profiler() {
  if (GetProfiler() == this) SetProfiler(nullptr);
}

void Profiler::SigprofHandler(int /*signum*/) {
  const int saved_errno = errno;
  Profiler* profiler = GetProfiler();
  if (profiler != nullptr &&
      profiler->armed_.load(std::memory_order_acquire)) {
    const size_t slot =
        profiler->claimed_.fetch_add(1, std::memory_order_relaxed);
    if (slot < profiler->ring_.size()) {
      Sample& sample = profiler->ring_[slot];
      sample.depth = backtrace(
          sample.pc, static_cast<int>(Options::kMaxDepth));
      profiler->published_.fetch_add(1, std::memory_order_release);
    }
  }
  errno = saved_errno;
}

std::string Profiler::CollectFolded(double seconds) {
  std::lock_guard<std::mutex> collection(collect_mu_);
  seconds = std::min(std::max(seconds, 0.05), 120.0);

  claimed_.store(0, std::memory_order_relaxed);
  published_.store(0, std::memory_order_relaxed);

  struct sigaction action;
  struct sigaction previous;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = &Profiler::SigprofHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  if (sigaction(SIGPROF, &action, &previous) != 0) return "";

  armed_.store(true, std::memory_order_release);
  const long interval_us =
      std::max(1000L, 1000000L / std::max(1, options_.hz));
  itimerval timer{};
  timer.it_interval.tv_sec = interval_us / 1000000;
  timer.it_interval.tv_usec = interval_us % 1000000;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, nullptr);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // ITIMER_PROF only ticks on consumed CPU time: an idle window yields
  // nothing. Burn a sliver of CPU here so a scrape of a quiet server
  // still returns at least this collector's own stack.
  if (claimed_.load(std::memory_order_relaxed) == 0) {
    const auto burn_deadline = std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(120);
    volatile uint64_t sink = 0;
    while (claimed_.load(std::memory_order_relaxed) == 0 &&
           std::chrono::steady_clock::now() < burn_deadline) {
      for (int i = 0; i < 4096; ++i) {
        sink = sink + static_cast<uint64_t>(i);
      }
    }
  }

  itimerval disarm{};
  setitimer(ITIMER_PROF, &disarm, nullptr);
  armed_.store(false, std::memory_order_release);

  // Wait out any handler that claimed a slot before the disarm.
  const size_t produced =
      std::min(claimed_.load(std::memory_order_acquire), ring_.size());
  const auto drain_deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(200);
  while (published_.load(std::memory_order_acquire) < produced &&
         std::chrono::steady_clock::now() < drain_deadline) {
    std::this_thread::yield();
  }
  sigaction(SIGPROF, &previous, nullptr);
  return Symbolize(produced);
}

std::string Profiler::Symbolize(size_t produced) {
  // Aggregate identical stacks first, then symbolize each distinct
  // frame once.
  std::map<std::vector<void*>, uint64_t> stacks;
  for (size_t i = 0; i < produced; ++i) {
    const Sample& sample = ring_[i];
    const int depth = std::min<int>(
        sample.depth, static_cast<int>(Options::kMaxDepth));
    if (depth <= 0) continue;
    stacks[std::vector<void*>(sample.pc, sample.pc + depth)] += 1;
  }
  if (stacks.empty()) return "";

  std::unordered_map<void*, std::string> symbols;
  auto symbol = [&symbols](void* pc) -> const std::string& {
    auto it = symbols.find(pc);
    if (it == symbols.end()) {
      it = symbols.emplace(pc, SymbolFor(pc)).first;
    }
    return it->second;
  };

  std::vector<std::pair<std::string, uint64_t>> lines;
  lines.reserve(stacks.size());
  for (const auto& [stack, count] : stacks) {
    // backtrace() is leaf-first; the handler itself plus the kernel's
    // signal trampoline sit at the leaf end — drop through them so the
    // folded stack starts at the interrupted frame.
    size_t skip = 0;
    for (size_t i = 0; i < stack.size(); ++i) {
      if (symbol(stack[i]).find("SigprofHandler") != std::string::npos) {
        skip = std::min(i + 2, stack.size());
        break;
      }
    }
    std::string line;
    for (size_t i = stack.size(); i > skip; --i) {  // Root-first.
      if (!line.empty()) line += ";";
      line += symbol(stack[i - 1]);
    }
    if (line.empty()) continue;
    lines.emplace_back(std::move(line), count);
  }
  if (lines.empty()) return "";

  // Merge stacks that folded to the same symbolized line.
  std::sort(lines.begin(), lines.end());
  std::vector<std::pair<std::string, uint64_t>> merged;
  for (auto& [line, count] : lines) {
    if (!merged.empty() && merged.back().first == line) {
      merged.back().second += count;
    } else {
      merged.emplace_back(std::move(line), count);
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });

  std::string out;
  for (const auto& [line, count] : merged) {
    out += line;
    out += " ";
    out += std::to_string(count);
    out += "\n";
  }
  return out;
}

}  // namespace latest::obs
