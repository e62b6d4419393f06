// Write-ahead log of stream events arriving after the last snapshot.
//
// File layout:
//   u32 magic "LWAL", u32 version, u64 start_seq
//   records, each framed as
//     u32 length   (of the record body)
//     u32 crc      (CRC-32 of the record body)
//     body: u32 type (1=object, 2=query), u64 seq, payload (stream_codec)
//
// Group commit on a syncer thread. Append only encodes the record into
// an in-memory group buffer. Each writer owns one syncer thread that
// runs the group's write() and fsync(), so the appending thread never
// waits on the disk in the common case. A group is handed to the syncer
// once half of `group_commit_every` (G) records are pending and no group
// is in flight. Append waits only when returning would leave G records
// unsynced, so a crash loses at most the last G-1 appended records, and
// G = 1 makes every Append wait for its own fsync. A write or fsync
// failure is sticky: the writer accepts no more records and every later
// Append or Sync returns that error (a retried fsync can falsely succeed
// after the kernel dropped the dirty pages).
//
// The reader stops at the first frame whose length runs past the file or
// whose CRC mismatches — the torn tail a crash mid-append leaves behind
// — and reports how many bytes were valid so recovery can truncate.

#ifndef LATEST_PERSIST_WAL_H_
#define LATEST_PERSIST_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics_registry.h"
#include "persist/stream_codec.h"
#include "util/serialization.h"
#include "util/status.h"

namespace latest::persist {

inline constexpr uint32_t kWalMagic = 0x4C41574Cu;  // "LWAL".
inline constexpr uint32_t kWalVersion = 1;

enum class WalRecordType : uint32_t {
  kObject = 1,
  kQuery = 2,
};

/// Appends stream events to a WAL file; a syncer thread writes and
/// fsyncs the groups. One thread at a time calls Append*/Sync (the
/// owner); the accessors below are for that thread too.
class WalWriter {
 public:
  /// Creates (truncates) `path`, writes and fsyncs the header, and starts
  /// the syncer. Sequence numbers continue from `start_seq` (the covering
  /// snapshot's sequence): the first record carries start_seq + 1.
  /// `fsync_counter`, when set, is incremented by the syncer once per
  /// group fsync.
  static util::Result<std::unique_ptr<WalWriter>> Create(
      const std::string& path, uint64_t start_seq,
      uint32_t group_commit_every = 64,
      obs::Counter* fsync_counter = nullptr);

  /// Drains every pending and in-flight group, stops the syncer, closes.
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  util::Status AppendObject(const stream::GeoTextObject& obj);
  util::Status AppendQuery(const stream::Query& q);

  /// Waits until every appended record is written and fsynced. Idempotent;
  /// returns the sticky error once a group failed.
  util::Status Sync();

  /// Records appended since Create.
  uint64_t appended() const { return next_seq_ - start_seq_ - 1; }
  uint64_t next_seq() const { return next_seq_; }
  /// Group fsyncs the syncer has completed (the header's is not counted).
  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }
  /// Bytes appended to the log, header included, whether or not the
  /// syncer has written them yet.
  uint64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

 private:
  WalWriter(std::string path, int fd, uint64_t start_seq,
            uint32_t group_commit_every, obs::Counter* fsync_counter);

  /// Frames `body_` (already holding type, seq and payload) into the
  /// group buffer and applies the loss bound.
  util::Status Append();
  /// Moves the pending records into the syncer's group and wakes it.
  /// Requires mu_ held and no group in flight.
  void HandOffLocked();
  void SyncerLoop();

  const std::string path_;
  const int fd_;
  const uint64_t start_seq_;
  const uint32_t group_commit_every_;
  const uint32_t handoff_at_;  // Pending records that start a group.
  obs::Counter* const fsync_counter_;

  // Owner-thread state.
  uint64_t next_seq_;
  uint64_t bytes_written_ = 0;
  util::BinaryWriter body_;  // Reused per record.

  std::mutex mu_;
  std::condition_variable syncer_cv_;  // A group was handed off, or stop.
  std::condition_variable done_cv_;    // A group finished (or failed).
  std::string pending_bytes_;          // Encoded, not yet handed off.
  uint32_t pending_records_ = 0;
  std::string group_bytes_;  // The syncer's while group_records_ > 0.
  uint32_t group_records_ = 0;
  util::Status error_;  // Sticky: the first failed write or fsync.
  bool stop_ = false;

  std::atomic<uint64_t> syncs_{0};
  std::thread syncer_;
};

/// One decoded WAL record.
struct WalRecord {
  WalRecordType type = WalRecordType::kObject;
  uint64_t seq = 0;
  stream::GeoTextObject object;  // Valid when type == kObject.
  stream::Query query;           // Valid when type == kQuery.
};

/// Reads a WAL file, stopping cleanly at a torn tail.
class WalReader {
 public:
  /// Parses the header and every intact record. A torn or corrupt tail is
  /// NOT an error: reading stops there, torn_tail() turns true, and
  /// valid_bytes() marks the truncation point. Only a missing file or a
  /// bad header fails.
  util::Status Open(const std::string& path);

  uint64_t start_seq() const { return start_seq_; }
  const std::vector<WalRecord>& records() const { return records_; }
  bool torn_tail() const { return torn_tail_; }
  /// File prefix (bytes) covered by the header and intact records.
  uint64_t valid_bytes() const { return valid_bytes_; }

 private:
  uint64_t start_seq_ = 0;
  std::vector<WalRecord> records_;
  bool torn_tail_ = false;
  uint64_t valid_bytes_ = 0;
};

}  // namespace latest::persist

#endif  // LATEST_PERSIST_WAL_H_
