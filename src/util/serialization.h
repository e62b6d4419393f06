// Minimal binary serialization used to persist learned state (the
// Hoeffding tree and the scoreboard) across process restarts.
//
// Format: little-endian fixed-width integers and IEEE doubles, written
// sequentially. The reader is bounds-checked: every Read* returns false
// on truncation instead of reading past the buffer, so corrupt snapshots
// fail cleanly.

#ifndef LATEST_UTIL_SERIALIZATION_H_
#define LATEST_UTIL_SERIALIZATION_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace latest::util {

/// Appends typed values to a byte buffer.
class BinaryWriter {
 public:
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { WriteRaw(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU32(v ? 1 : 0); }

  /// Length-unprefixed raw bytes; the reader must know the size.
  void WriteBytes(const void* data, size_t size) { WriteRaw(data, size); }

  /// Length-prefixed byte string (u64 size + payload).
  void WriteString(std::string_view s) {
    WriteU64(s.size());
    WriteRaw(s.data(), s.size());
  }

  const std::string& buffer() const { return buffer_; }
  std::string&& TakeBuffer() { return std::move(buffer_); }

  /// Empties the buffer but keeps its capacity, so a writer reused per
  /// record stops allocating once it has seen the largest record.
  void Clear() { buffer_.clear(); }

 private:
  void WriteRaw(const void* data, size_t size) {
    // Zero-size appends are no-ops (and `data` may then legally be null,
    // e.g. an empty vector's data()).
    if (size != 0) buffer_.append(static_cast<const char*>(data), size);
  }

  std::string buffer_;
};

/// Sequentially consumes typed values from a byte view.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  bool ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadI64(int64_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadDouble(double* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadBool(bool* v) {
    uint32_t raw;
    if (!ReadU32(&raw)) return false;
    *v = raw != 0;
    return true;
  }

  /// Raw bytes of a known size (counterpart of WriteBytes).
  bool ReadBytes(void* out, size_t size) { return ReadRaw(out, size); }

  /// Length-prefixed byte string (counterpart of WriteString).
  bool ReadString(std::string* s) {
    uint64_t size;
    if (!ReadU64(&size) || remaining() < size) return false;
    s->assign(data_.data() + offset_, size);
    offset_ += size;
    return true;
  }

  /// Advances past `size` bytes without copying them.
  bool Skip(size_t size) {
    if (remaining() < size) return false;
    offset_ += size;
    return true;
  }

  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size() - offset_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  bool ReadRaw(void* out, size_t size) {
    if (remaining() < size) return false;
    // memcpy with a null destination is UB even for zero bytes, and an
    // empty vector's data() is legitimately null.
    if (size != 0) std::memcpy(out, data_.data() + offset_, size);
    offset_ += size;
    return true;
  }

  std::string_view data_;
  size_t offset_ = 0;
};

}  // namespace latest::util

#endif  // LATEST_UTIL_SERIALIZATION_H_
