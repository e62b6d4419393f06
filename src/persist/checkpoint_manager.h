// Durable operation of a LatestModule: periodic versioned snapshots plus
// a WAL of every stream event since the last snapshot.
//
// Protocol:
//   - Attach() writes snapshot-<seq>.ckpt of the module's current state
//     and opens wal-<seq>.log next to it. <seq> is the number of stream
//     events (objects + queries) the module has consumed — a recovered
//     process continues the same numbering because the module's lifetime
//     counters are part of the snapshot.
//   - OnObject/OnQuery append to the WAL *before* forwarding to the
//     module (write-ahead), then trigger an automatic checkpoint every
//     `checkpoint_every` events.
//   - Checkpoint() snapshots, rotates to a fresh WAL, and prunes old
//     snapshot/WAL pairs beyond `keep_snapshots`.
//   - Recover() scans the directory for the newest loadable snapshot
//     (corrupt ones — bad CRC anywhere — fall back to the previous),
//     replays the matching WAL up to its first torn record, and returns
//     the reconstructed module. Because every decision input is inside
//     the snapshot and the WAL replays the exact event suffix, the
//     recovered module continues bit-identically to an uninterrupted run.
//
// Group commit bounds loss: a crash forfeits at most the last
// `wal_group_commit - 1` appended events (they were never acknowledged
// durable). Everything synced is recovered exactly. The WAL's own syncer
// thread writes and fsyncs the groups (wal.h), so OnObject/OnQuery only
// encode a record and wait on the disk only when that bound would
// otherwise be exceeded; the syncer counts its fsyncs into
// `persist_wal_fsyncs_total`.

#ifndef LATEST_PERSIST_CHECKPOINT_MANAGER_H_
#define LATEST_PERSIST_CHECKPOINT_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/latest_module.h"
#include "persist/wal.h"
#include "util/status.h"

namespace latest::persist {

/// Knobs of the durability subsystem.
struct DurabilityConfig {
  /// Directory holding snapshot-<seq>.ckpt / wal-<seq>.log pairs. Must
  /// exist.
  std::string dir;

  /// Stream events (objects + queries) between automatic checkpoints;
  /// 0 disables automatic checkpointing (manual Checkpoint() only).
  uint64_t checkpoint_every = 0;

  /// WAL records per group-commit fsync (1 = fsync every record).
  uint32_t wal_group_commit = 64;

  /// Snapshot/WAL pairs retained after a checkpoint (>= 1). Older pairs
  /// are deleted; keeping two means one full corruption fallback level.
  uint32_t keep_snapshots = 2;
};

/// Composed file names, shared with the inspector tool.
std::string SnapshotPath(const std::string& dir, uint64_t seq);
std::string WalPath(const std::string& dir, uint64_t seq);
/// Parses <seq> out of a snapshot file name; false when the name does not
/// match the snapshot-<seq>.ckpt pattern.
bool ParseSnapshotName(const std::string& filename, uint64_t* seq);

/// Section names inside a snapshot file.
inline constexpr char kSectionMeta[] = "meta";
inline constexpr char kSectionModule[] = "module";

/// Wraps a LatestModule with write-ahead logging and checkpointing.
class CheckpointManager {
 public:
  /// Takes an immediate snapshot of `module` (so a WAL base always
  /// exists) and opens a fresh WAL. The module is borrowed and must
  /// outlive the manager.
  static util::Result<std::unique_ptr<CheckpointManager>> Attach(
      const DurabilityConfig& config, core::LatestModule* module);

  /// Logs the object (write-ahead, durable once its group is fsynced),
  /// forwards it to the module, and checkpoints when the automatic
  /// interval elapsed.
  util::Status OnObject(const stream::GeoTextObject& obj);

  /// Same for a query; the outcome is the module's.
  util::Result<core::QueryOutcome> OnQuery(const stream::Query& q);

  /// Snapshot now + rotate the WAL + prune old pairs.
  util::Status Checkpoint();

  /// Waits until every logged event is written and fsynced.
  util::Status Sync();

  /// Stream events the module has consumed (snapshot sequence base).
  uint64_t sequence() const;
  uint64_t last_snapshot_seq() const { return last_snapshot_seq_; }
  uint64_t snapshots_taken() const { return snapshots_taken_; }

  /// What Recover reconstructed, and how.
  struct Recovered {
    std::unique_ptr<core::LatestModule> module;
    uint64_t snapshot_seq = 0;     // Sequence of the snapshot loaded.
    uint64_t replayed_objects = 0; // WAL records replayed.
    uint64_t replayed_queries = 0;
    uint32_t snapshots_skipped = 0;  // Corrupt snapshots fallen through.
    bool torn_wal_tail = false;      // WAL ended in a torn/corrupt record.
  };

  /// Loads the newest intact snapshot in `dir` into a fresh module built
  /// from `config` and replays its WAL tail. Corrupt snapshots (any CRC
  /// or structural failure) degrade to the previous one; NotFound when no
  /// loadable snapshot exists (caller starts fresh).
  static util::Result<Recovered> Recover(const std::string& dir,
                                         const core::LatestConfig& config);

  /// Snapshot sequences present in `dir`, descending (newest first).
  static std::vector<uint64_t> ListSnapshots(const std::string& dir);

 private:
  CheckpointManager(const DurabilityConfig& config,
                    core::LatestModule* module);

  util::Status MaybeCheckpoint();
  void RegisterMetrics();
  void Prune();

  DurabilityConfig config_;
  core::LatestModule* module_;
  std::unique_ptr<WalWriter> wal_;
  uint64_t last_snapshot_seq_ = 0;
  uint64_t snapshots_taken_ = 0;

  obs::Counter* snapshots_counter_ = nullptr;
  obs::Counter* wal_records_counter_ = nullptr;
  obs::Counter* wal_fsyncs_counter_ = nullptr;
  obs::Gauge* snapshot_bytes_gauge_ = nullptr;
  obs::Gauge* wal_bytes_gauge_ = nullptr;
  obs::Gauge* wal_lag_gauge_ = nullptr;
  obs::Histogram* snapshot_duration_histogram_ = nullptr;
};

}  // namespace latest::persist

#endif  // LATEST_PERSIST_CHECKPOINT_MANAGER_H_
