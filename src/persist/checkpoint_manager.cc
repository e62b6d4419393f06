#include "persist/checkpoint_manager.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "obs/span.h"
#include "persist/checkpoint_format.h"
#include "persist/file_io.h"
#include "util/stopwatch.h"

namespace latest::persist {

namespace {

constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".ckpt";

}  // namespace

std::string SnapshotPath(const std::string& dir, uint64_t seq) {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%020" PRIu64 "%s", kSnapshotPrefix,
                seq, kSnapshotSuffix);
  return dir + "/" + name;
}

std::string WalPath(const std::string& dir, uint64_t seq) {
  char name[64];
  std::snprintf(name, sizeof(name), "wal-%020" PRIu64 ".log", seq);
  return dir + "/" + name;
}

bool ParseSnapshotName(const std::string& filename, uint64_t* seq) {
  const std::string_view name(filename);
  const std::string_view prefix(kSnapshotPrefix);
  const std::string_view suffix(kSnapshotSuffix);
  if (name.size() <= prefix.size() + suffix.size() ||
      name.substr(0, prefix.size()) != prefix ||
      name.substr(name.size() - suffix.size()) != suffix) {
    return false;
  }
  const std::string digits(
      name.substr(prefix.size(),
                  name.size() - prefix.size() - suffix.size()));
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *seq = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

CheckpointManager::CheckpointManager(const DurabilityConfig& config,
                                     core::LatestModule* module)
    : config_(config), module_(module) {
  if (config_.keep_snapshots == 0) config_.keep_snapshots = 1;
  RegisterMetrics();
}

void CheckpointManager::RegisterMetrics() {
  obs::MetricsRegistry& registry = module_->telemetry().registry();
  snapshots_counter_ = registry.GetCounter(
      "persist_snapshots_total", "Checkpoint snapshots committed");
  wal_records_counter_ = registry.GetCounter(
      "persist_wal_records_total", "Stream events appended to the WAL");
  wal_fsyncs_counter_ = registry.GetCounter(
      "persist_wal_fsyncs_total", "WAL group-commit fsync calls");
  snapshot_bytes_gauge_ = registry.GetGauge(
      "persist_snapshot_bytes", "Size of the last committed snapshot");
  wal_bytes_gauge_ = registry.GetGauge(
      "persist_wal_bytes", "Bytes written to the current WAL");
  wal_lag_gauge_ = registry.GetGauge(
      "persist_wal_lag_records",
      "Events logged since the last snapshot (replay cost on recovery)");
  snapshot_duration_histogram_ = registry.GetHistogram(
      "persist_snapshot_duration_ms",
      "Wall clock of snapshot serialization + commit (ms)",
      obs::Histogram::LatencyBucketsMs());
}

uint64_t CheckpointManager::sequence() const {
  return module_->objects_ingested() + module_->queries_answered();
}

util::Result<std::unique_ptr<CheckpointManager>> CheckpointManager::Attach(
    const DurabilityConfig& config, core::LatestModule* module) {
  if (!std::filesystem::is_directory(config.dir)) {
    return util::Status::InvalidArgument("checkpoint dir does not exist: " +
                                         config.dir);
  }
  std::unique_ptr<CheckpointManager> manager(
      new CheckpointManager(config, module));
  LATEST_RETURN_IF_ERROR(manager->Checkpoint());
  return manager;
}

util::Status CheckpointManager::Checkpoint() {
  LATEST_SPAN("snapshot");
  const util::Stopwatch watch;
  const uint64_t seq = sequence();
  CheckpointWriter writer;
  util::BinaryWriter* meta = writer.AddSection(kSectionMeta);
  meta->WriteU64(module_->objects_ingested());
  meta->WriteU64(module_->queries_answered());
  meta->WriteU32(static_cast<uint32_t>(module_->phase()));
  util::BinaryWriter* body = writer.AddSection(kSectionModule);
  module_->SaveState(body);
  const std::string image = writer.Finish(seq);
  LATEST_RETURN_IF_ERROR(
      AtomicWriteFile(SnapshotPath(config_.dir, seq), image));

  // Rotate the WAL: events after this snapshot land in a fresh log. The
  // old WAL (covered by the new snapshot) is deleted by pruning.
  wal_.reset();  // Syncs + closes the previous log.
  auto wal = WalWriter::Create(WalPath(config_.dir, seq), seq,
                               config_.wal_group_commit, wal_fsyncs_counter_);
  LATEST_RETURN_IF_ERROR(wal.status());
  wal_ = std::move(wal).value();
  LATEST_RETURN_IF_ERROR(SyncDir(config_.dir));

  last_snapshot_seq_ = seq;
  ++snapshots_taken_;
  Prune();

  snapshots_counter_->Increment();
  snapshot_bytes_gauge_->Set(static_cast<double>(image.size()));
  wal_lag_gauge_->Set(0.0);
  wal_bytes_gauge_->Set(static_cast<double>(wal_->bytes_written()));
  snapshot_duration_histogram_->Observe(watch.ElapsedMillis());
  return util::Status::Ok();
}

void CheckpointManager::Prune() {
  std::vector<uint64_t> seqs = ListSnapshots(config_.dir);
  for (size_t i = config_.keep_snapshots; i < seqs.size(); ++i) {
    std::error_code ec;  // Best effort; stale files are harmless.
    std::filesystem::remove(SnapshotPath(config_.dir, seqs[i]), ec);
    std::filesystem::remove(WalPath(config_.dir, seqs[i]), ec);
  }
}

util::Status CheckpointManager::MaybeCheckpoint() {
  const uint64_t lag = sequence() - last_snapshot_seq_;
  wal_lag_gauge_->Set(static_cast<double>(lag));
  wal_bytes_gauge_->Set(static_cast<double>(wal_->bytes_written()));
  if (config_.checkpoint_every != 0 && lag >= config_.checkpoint_every) {
    return Checkpoint();
  }
  return util::Status::Ok();
}

util::Status CheckpointManager::OnObject(const stream::GeoTextObject& obj) {
  {
    LATEST_SPAN("wal_append");
    LATEST_RETURN_IF_ERROR(wal_->AppendObject(obj));
  }
  wal_records_counter_->Increment();
  module_->OnObject(obj);
  return MaybeCheckpoint();
}

util::Result<core::QueryOutcome> CheckpointManager::OnQuery(
    const stream::Query& q) {
  {
    LATEST_SPAN("wal_append");
    LATEST_RETURN_IF_ERROR(wal_->AppendQuery(q));
  }
  wal_records_counter_->Increment();
  core::QueryOutcome outcome = module_->OnQuery(q);
  LATEST_RETURN_IF_ERROR(MaybeCheckpoint());
  return outcome;
}

util::Status CheckpointManager::Sync() { return wal_->Sync(); }

std::vector<uint64_t> CheckpointManager::ListSnapshots(
    const std::string& dir) {
  std::vector<uint64_t> seqs;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    uint64_t seq;
    if (ParseSnapshotName(entry.path().filename().string(), &seq)) {
      seqs.push_back(seq);
    }
  }
  std::sort(seqs.rbegin(), seqs.rend());
  return seqs;
}

util::Result<CheckpointManager::Recovered> CheckpointManager::Recover(
    const std::string& dir, const core::LatestConfig& config) {
  Recovered result;
  const std::vector<uint64_t> seqs = ListSnapshots(dir);
  for (const uint64_t seq : seqs) {
    CheckpointReader reader;
    if (!reader.Open(SnapshotPath(dir, seq)).ok()) {
      ++result.snapshots_skipped;
      continue;
    }
    // Verify every section, not just the one we load: corruption anywhere
    // in the file disqualifies the snapshot (its sibling sections are part
    // of the same commit and a future format version may need them).
    if (!reader.Verify().ok()) {
      ++result.snapshots_skipped;
      continue;
    }
    auto section = reader.Section(kSectionModule);
    if (!section.ok()) {
      ++result.snapshots_skipped;
      continue;
    }
    // A fresh module per attempt: LoadState leaves a partially restored
    // module unusable on failure.
    auto module = core::LatestModule::Create(config);
    LATEST_RETURN_IF_ERROR(module.status());
    if (!(*module)->LoadState(&section.value()).ok()) {
      ++result.snapshots_skipped;
      continue;
    }
    result.module = std::move(module).value();
    result.snapshot_seq = seq;
    break;
  }
  if (result.module == nullptr) {
    return util::Status::NotFound(
        "no loadable snapshot in " + dir +
        (seqs.empty() ? " (directory has none)"
                      : " (all candidates corrupt)"));
  }

  // Replay the WAL tail. A missing WAL (crash between snapshot commit and
  // WAL creation) or a bad WAL header replays nothing; a torn tail stops
  // replay at the last intact record.
  WalReader wal;
  const util::Status wal_status = wal.Open(WalPath(dir, result.snapshot_seq));
  if (wal_status.ok() && wal.start_seq() == result.snapshot_seq) {
    for (const WalRecord& record : wal.records()) {
      if (record.type == WalRecordType::kObject) {
        result.module->OnObject(record.object);
        ++result.replayed_objects;
      } else {
        result.module->OnQuery(record.query);
        ++result.replayed_queries;
      }
    }
    result.torn_wal_tail = wal.torn_tail();
  } else if (wal_status.code() != util::StatusCode::kNotFound) {
    result.torn_wal_tail = true;
  }
  return result;
}

}  // namespace latest::persist
