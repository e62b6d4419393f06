// WalWriter with its syncer thread: the on-disk layout is the one
// DESIGN.md §11 documents, the group-commit loss bound holds after every
// Append, a failed write is sticky, and the fsync never runs on the
// appending thread.

#include <sys/resource.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "obs/span.h"
#include "persist/crc32.h"
#include "persist/file_io.h"
#include "persist/stream_codec.h"
#include "persist/wal.h"
#include "tests/test_stream.h"
#include "util/serialization.h"

namespace latest::persist {
namespace {

std::string MakeTempDir() {
  std::string tmpl =
      (std::filesystem::temp_directory_path() / "latest_wal_XXXXXX")
          .string();
  const char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = MakeTempDir(); }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Path() const { return dir_ + "/wal.log"; }

  std::string dir_;
};

stream::GeoTextObject MakeObject(uint64_t oid, size_t num_keywords = 3) {
  stream::GeoTextObject obj;
  obj.oid = oid;
  obj.loc = {static_cast<double>(oid % 100), 50.5};
  for (size_t k = 0; k < num_keywords; ++k) {
    obj.keywords.push_back(static_cast<stream::KeywordId>(oid + k));
  }
  obj.timestamp = static_cast<stream::Timestamp>(oid * 2);
  return obj;
}

std::unique_ptr<WalWriter> MustCreate(const std::string& path,
                                      uint64_t start_seq, uint32_t group) {
  auto wal = WalWriter::Create(path, start_seq, group);
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  return std::move(wal).value();
}

size_t ReadableRecords(const std::string& path) {
  WalReader reader;
  EXPECT_TRUE(reader.Open(path).ok());
  return reader.records().size();
}

// Runs `body` on another thread and fails the whole binary if it has not
// returned within the deadline: a writer that deadlocks must not hang the
// suite until the ctest timeout.
template <typename Body>
void WithDeadline(Body body) {
  auto done = std::async(std::launch::async, body);
  if (done.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    ADD_FAILURE() << "WAL writer did not return within 30 s";
    std::_Exit(1);
  }
  done.get();
}

// The bytes on disk are exactly the documented frame layout, built here
// by hand from the codec and the CRC: the in-place encoder changed no
// byte of the format.
TEST_F(WalTest, OnDiskBytesMatchTheDocumentedLayout) {
  const stream::GeoTextObject first = MakeObject(7, 4);
  const stream::Query query = testing_support::MakeHybridQuery(
      geo::Rect{1.0, 2.0, 30.0, 40.0}, {3, 9}, 1234);
  const stream::GeoTextObject second = MakeObject(8, 0);
  constexpr uint64_t kStartSeq = 41;
  {
    auto wal = MustCreate(Path(), kStartSeq, 64);
    ASSERT_TRUE(wal->AppendObject(first).ok());
    ASSERT_TRUE(wal->AppendQuery(query).ok());
    ASSERT_TRUE(wal->AppendObject(second).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }

  util::BinaryWriter expected;
  expected.WriteU32(kWalMagic);
  expected.WriteU32(kWalVersion);
  expected.WriteU64(kStartSeq);
  const auto frame = [&expected](WalRecordType type, uint64_t seq,
                                 const util::BinaryWriter& payload) {
    util::BinaryWriter body;
    body.WriteU32(static_cast<uint32_t>(type));
    body.WriteU64(seq);
    body.WriteBytes(payload.buffer().data(), payload.buffer().size());
    expected.WriteU32(static_cast<uint32_t>(body.buffer().size()));
    expected.WriteU32(Crc32(body.buffer()));
    expected.WriteBytes(body.buffer().data(), body.buffer().size());
  };
  util::BinaryWriter payload;
  EncodeObject(first, &payload);
  frame(WalRecordType::kObject, kStartSeq + 1, payload);
  payload.Clear();
  EncodeQuery(query, &payload);
  frame(WalRecordType::kQuery, kStartSeq + 2, payload);
  payload.Clear();
  EncodeObject(second, &payload);
  frame(WalRecordType::kObject, kStartSeq + 3, payload);

  std::string actual;
  ASSERT_TRUE(ReadFile(Path(), &actual).ok());
  EXPECT_EQ(actual, expected.buffer());
}

// After every Append returns, at most G-1 appended records are missing
// from the file; after Sync, none is.
TEST_F(WalTest, AppendLeavesAtMostGroupMinusOneRecordsUnsynced) {
  constexpr uint32_t kGroup = 8;
  constexpr uint64_t kRecords = 300;
  auto wal = MustCreate(Path(), 0, kGroup);
  for (uint64_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(wal->AppendObject(MakeObject(i)).ok());
    ASSERT_GE(ReadableRecords(Path()) + (kGroup - 1), wal->appended())
        << "after append " << i;
  }
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_EQ(ReadableRecords(Path()), kRecords);
  EXPECT_TRUE(wal->Sync().ok());  // Idempotent.
  EXPECT_EQ(wal->appended(), kRecords);
  EXPECT_GT(wal->syncs(), 0u);
}

// G = 1: every Append waits for its own fsync.
TEST_F(WalTest, GroupOfOneSyncsEveryAppend) {
  auto wal = MustCreate(Path(), 0, 1);
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(wal->AppendObject(MakeObject(i)).ok());
    ASSERT_EQ(ReadableRecords(Path()), i + 1);
    ASSERT_EQ(wal->syncs(), i + 1);
  }
}

// The destructor drains pending and in-flight groups (checkpoint
// rotation relies on it), and the syncer counts each group fsync into
// the caller's counter.
TEST_F(WalTest, DestructorDrainsAndSyncerCountsItsFsyncs) {
  obs::Counter fsyncs;
  uint64_t syncs = 0;
  {
    auto wal = WalWriter::Create(Path(), 5, 64, &fsyncs);
    ASSERT_TRUE(wal.ok());
    for (uint64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE((*wal)->AppendObject(MakeObject(i)).ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());
    syncs = (*wal)->syncs();
    // A tail below the hand-off size stays pending until the destructor.
    ASSERT_TRUE((*wal)->AppendObject(MakeObject(100)).ok());
    ASSERT_TRUE((*wal)->AppendQuery(
        testing_support::MakeKeywordQuery({1, 2}, 300)).ok());
  }
  WalReader reader;
  ASSERT_TRUE(reader.Open(Path()).ok());
  ASSERT_EQ(reader.records().size(), 102u);
  EXPECT_FALSE(reader.torn_tail());
  EXPECT_EQ(reader.records().back().type, WalRecordType::kQuery);
  EXPECT_EQ(reader.records().back().seq, 5u + 102u);
  EXPECT_EQ(fsyncs.value(), syncs + 1);
}

// A failed write poisons the writer: that Append (or the next Sync) and
// every later call returns the error, none hangs, and what reached the
// file is an intact prefix of the appended records.
TEST_F(WalTest, WriteFailureIsStickyAndLeavesAReadablePrefix) {
  constexpr uint32_t kGroup = 8;
  auto wal = MustCreate(Path(), 0, kGroup);
  const std::filesystem::path file(Path());
  const uint64_t header_bytes = std::filesystem::file_size(file);

  // Cap the file size for this process a few KB past the header. With
  // SIGXFSZ ignored, the write that crosses the cap fails with EFBIG.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit capped = saved;
  capped.rlim_cur = header_bytes + 4000;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);

  uint64_t ok_appends = 0;
  bool failed = false;
  WithDeadline([&] {
    for (uint64_t i = 0; i < 1000 && !failed; ++i) {
      if (wal->AppendObject(MakeObject(i, 8)).ok()) {
        ++ok_appends;
      } else {
        failed = true;
      }
    }
    if (!failed) failed = !wal->Sync().ok();
  });

  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, old_handler);
  ASSERT_TRUE(failed) << "the file-size cap never failed a write";

  // Sticky: the cap is lifted, yet nothing is accepted any more. The
  // failing Append itself may or may not have been accepted.
  const uint64_t accepted = wal->appended();
  EXPECT_GE(accepted, ok_appends);
  EXPECT_LE(accepted, ok_appends + 1);
  WithDeadline([&] {
    for (uint64_t i = 0; i < 3 * kGroup; ++i) {
      EXPECT_FALSE(wal->AppendObject(MakeObject(5000 + i)).ok());
      EXPECT_FALSE(wal->AppendQuery(
          testing_support::MakeKeywordQuery({1}, 0)).ok());
      EXPECT_FALSE(wal->Sync().ok());
    }
  });
  EXPECT_EQ(wal->appended(), accepted);
  WithDeadline([&] { wal.reset(); });

  WalReader reader;
  ASSERT_TRUE(reader.Open(Path()).ok());
  const auto& records = reader.records();
  EXPECT_LE(records.size(), accepted);
  EXPECT_GE(records.size() + (kGroup - 1), ok_appends);
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(records[i].type, WalRecordType::kObject);
    EXPECT_EQ(records[i].seq, i + 1);
    EXPECT_EQ(records[i].object.oid, i);
    EXPECT_EQ(records[i].object.keywords, MakeObject(i, 8).keywords);
  }
}

/// Installs a span collector for one test body and clears the global
/// again even on assertion failure.
class ScopedSpanCollector {
 public:
  explicit ScopedSpanCollector(obs::SpanCollector* collector) {
    obs::SetSpanCollector(collector);
  }
  ~ScopedSpanCollector() { obs::SetSpanCollector(nullptr); }
};

// Every wal_fsync span is recorded by the syncer thread, never by the
// thread that appends.
TEST_F(WalTest, FsyncRunsOnTheSyncerThreadNotTheAppender) {
  obs::SpanCollector collector(4096, /*sample_every=*/1);
  ScopedSpanCollector installed(&collector);
  const uint32_t appender_tid = obs::CurrentThreadTid();
  {
    auto wal = MustCreate(Path(), 0, 4);
    for (uint64_t i = 0; i < 64; ++i) {
      ASSERT_TRUE(wal->AppendObject(MakeObject(i)).ok());
    }
    ASSERT_TRUE(wal->Sync().ok());
  }
  size_t fsync_spans = 0;
  uint32_t syncer_tid = 0;
  for (const obs::SpanRecord& span : collector.Snapshot()) {
    if (std::string_view(span.name) != "wal_fsync") continue;
    ++fsync_spans;
    EXPECT_NE(span.tid, appender_tid);
    if (syncer_tid == 0) syncer_tid = span.tid;
    EXPECT_EQ(span.tid, syncer_tid);
  }
  // 64 records in groups of at most 4.
  EXPECT_GE(fsync_spans, 16u);
}

}  // namespace
}  // namespace latest::persist
