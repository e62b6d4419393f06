#include "persist/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/span.h"
#include "persist/crc32.h"
#include "persist/file_io.h"

namespace latest::persist {

namespace {

util::Status Errno(const std::string& op, const std::string& path) {
  return util::Status::Internal(op + " " + path + ": " +
                                std::strerror(errno));
}

util::Status WriteAll(int fd, std::string_view bytes,
                      const std::string& path) {
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path);
    }
    written += static_cast<size_t>(n);
  }
  return util::Status::Ok();
}

}  // namespace

util::Result<std::unique_ptr<WalWriter>> WalWriter::Create(
    const std::string& path, uint64_t start_seq,
    uint32_t group_commit_every, obs::Counter* fsync_counter) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", path);
  util::BinaryWriter header;
  header.WriteU32(kWalMagic);
  header.WriteU32(kWalVersion);
  header.WriteU64(start_seq);
  util::Status status = WriteAll(fd, header.buffer(), path);
  // The header must be durable before the file name is relied upon; one
  // fsync here plus the directory sync by the caller covers creation.
  if (status.ok() && ::fsync(fd) != 0) status = Errno("fsync", path);
  if (!status.ok()) {
    ::close(fd);
    return status;
  }
  std::unique_ptr<WalWriter> writer(
      new WalWriter(path, fd, start_seq,
                    group_commit_every == 0 ? 1 : group_commit_every,
                    fsync_counter));
  writer->bytes_written_ = header.buffer().size();
  return writer;
}

WalWriter::WalWriter(std::string path, int fd, uint64_t start_seq,
                     uint32_t group_commit_every,
                     obs::Counter* fsync_counter)
    : path_(std::move(path)),
      fd_(fd),
      start_seq_(start_seq),
      group_commit_every_(group_commit_every),
      handoff_at_(std::max<uint32_t>(1, group_commit_every / 2)),
      fsync_counter_(fsync_counter),
      next_seq_(start_seq + 1),
      syncer_([this] { SyncerLoop(); }) {}

WalWriter::~WalWriter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  syncer_cv_.notify_one();
  syncer_.join();
  ::close(fd_);
}

util::Status WalWriter::AppendObject(const stream::GeoTextObject& obj) {
  body_.Clear();
  body_.WriteU32(static_cast<uint32_t>(WalRecordType::kObject));
  body_.WriteU64(next_seq_);
  EncodeObject(obj, &body_);
  return Append();
}

util::Status WalWriter::AppendQuery(const stream::Query& q) {
  body_.Clear();
  body_.WriteU32(static_cast<uint32_t>(WalRecordType::kQuery));
  body_.WriteU64(next_seq_);
  EncodeQuery(q, &body_);
  return Append();
}

util::Status WalWriter::Append() {
  const std::string& body = body_.buffer();
  const uint32_t frame[2] = {static_cast<uint32_t>(body.size()),
                             Crc32(body)};
  std::unique_lock<std::mutex> lock(mu_);
  if (!error_.ok()) return error_;
  pending_bytes_.append(reinterpret_cast<const char*>(frame), sizeof(frame));
  pending_bytes_.append(body);
  ++pending_records_;
  ++next_seq_;
  bytes_written_ += sizeof(frame) + body.size();
  if (group_records_ == 0 && pending_records_ >= handoff_at_) {
    HandOffLocked();
  }
  // Returning with G records unsynced would break the loss bound: wait
  // for the group in flight (handing off the pending one if none is).
  while (error_.ok() &&
         pending_records_ + group_records_ >= group_commit_every_) {
    if (group_records_ == 0) HandOffLocked();
    done_cv_.wait(lock);
  }
  return error_;
}

util::Status WalWriter::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  while (error_.ok() && pending_records_ + group_records_ > 0) {
    if (group_records_ == 0) HandOffLocked();
    done_cv_.wait(lock);
  }
  return error_;
}

void WalWriter::HandOffLocked() {
  group_bytes_.swap(pending_bytes_);  // pending_bytes_ is left empty.
  group_records_ = pending_records_;
  pending_records_ = 0;
  syncer_cv_.notify_one();
}

void WalWriter::SyncerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    syncer_cv_.wait(lock, [this] { return group_records_ > 0 || stop_; });
    if (group_records_ == 0) {
      // Stopping: drain the tail, then exit.
      if (pending_records_ == 0 || !error_.ok()) return;
      HandOffLocked();
    }
    lock.unlock();
    util::Status status;
    {
      LATEST_SPAN("wal_fsync");
      status = WriteAll(fd_, group_bytes_, path_);
      if (status.ok() && ::fsync(fd_) != 0) status = Errno("fsync", path_);
    }
    group_bytes_.clear();
    lock.lock();
    group_records_ = 0;
    if (status.ok()) {
      syncs_.fetch_add(1, std::memory_order_relaxed);
      if (fsync_counter_ != nullptr) fsync_counter_->Increment();
      if (pending_records_ >= handoff_at_) HandOffLocked();
    } else {
      error_ = status;
    }
    done_cv_.notify_all();
  }
}

util::Status WalReader::Open(const std::string& path) {
  std::string bytes;
  LATEST_RETURN_IF_ERROR(ReadFile(path, &bytes));
  records_.clear();
  torn_tail_ = false;
  util::BinaryReader reader(bytes);
  uint32_t magic;
  uint32_t version;
  if (!reader.ReadU32(&magic) || magic != kWalMagic) {
    return util::Status::DataLoss("wal: bad magic in " + path);
  }
  if (!reader.ReadU32(&version) || version != kWalVersion) {
    return util::Status::DataLoss("wal: unsupported version in " + path);
  }
  if (!reader.ReadU64(&start_seq_)) {
    return util::Status::DataLoss("wal: truncated header in " + path);
  }
  valid_bytes_ = bytes.size() - reader.remaining();
  uint64_t expected_seq = start_seq_ + 1;
  while (!reader.exhausted()) {
    uint32_t length;
    uint32_t crc;
    if (!reader.ReadU32(&length) || !reader.ReadU32(&crc) ||
        reader.remaining() < length) {
      // A frame header or body ran past the file: torn final append.
      torn_tail_ = true;
      break;
    }
    const std::string_view body(bytes.data() +
                                    (bytes.size() - reader.remaining()),
                                length);
    if (Crc32(body) != crc) {
      torn_tail_ = true;
      break;
    }
    util::BinaryReader body_reader(body);
    WalRecord record;
    uint32_t type;
    bool ok = body_reader.ReadU32(&type) && body_reader.ReadU64(&record.seq);
    if (ok) {
      switch (type) {
        case static_cast<uint32_t>(WalRecordType::kObject):
          record.type = WalRecordType::kObject;
          ok = DecodeObject(&body_reader, &record.object);
          break;
        case static_cast<uint32_t>(WalRecordType::kQuery):
          record.type = WalRecordType::kQuery;
          ok = DecodeQuery(&body_reader, &record.query);
          break;
        default:
          ok = false;
      }
    }
    ok = ok && body_reader.exhausted() && record.seq == expected_seq;
    if (!ok) {
      // The CRC matched but the content is not a well-formed next record;
      // treat like a torn tail rather than replaying garbage.
      torn_tail_ = true;
      break;
    }
    reader.Skip(length);
    records_.push_back(std::move(record));
    valid_bytes_ = bytes.size() - reader.remaining();
    ++expected_seq;
  }
  return util::Status::Ok();
}

}  // namespace latest::persist
