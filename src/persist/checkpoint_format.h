// Versioned, checksummed snapshot container (the ".ckpt" file format).
//
// A checkpoint is a set of named sections, each independently CRC-32
// protected, preceded by a fixed header and a section table:
//
//   u32  magic            "LCKP" (bytes 4C 43 4B 50)
//   u32  format version   (kCheckpointVersion)
//   u64  sequence         stream events covered by this snapshot
//   u32  num_sections
//   u32  table_crc        CRC-32 of the section-table bytes
//   table: per section    name (u64 len + bytes), u64 offset, u64 size,
//                         u32 crc
//   payloads              concatenated section bytes
//
// All integers are little-endian fixed width (util::BinaryWriter). The
// per-section CRC localizes corruption: a flipped byte in one section is
// reported as exactly that section failing verification, and the reader
// never hands out unverified bytes. Files are committed via
// AtomicWriteFile, so a crash during checkpointing leaves the previous
// snapshot intact.

#ifndef LATEST_PERSIST_CHECKPOINT_FORMAT_H_
#define LATEST_PERSIST_CHECKPOINT_FORMAT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/serialization.h"
#include "util/status.h"

namespace latest::persist {

inline constexpr uint32_t kCheckpointMagic = 0x504B434Cu;  // "LCKP".
inline constexpr uint32_t kCheckpointVersion = 1;

/// Builds a checkpoint image section by section.
class CheckpointWriter {
 public:
  /// Opens a new section; write its payload through the returned writer.
  /// The pointer stays valid until the CheckpointWriter is destroyed.
  /// Section names must be unique (not enforced; the reader returns the
  /// first match).
  util::BinaryWriter* AddSection(std::string name);

  /// Serializes header + table + payloads into one image.
  std::string Finish(uint64_t sequence) const;

 private:
  struct Section {
    std::string name;
    // Owned by pointer so AddSection results stay stable across growth.
    std::unique_ptr<util::BinaryWriter> payload;
  };
  std::vector<Section> sections_;
};

/// Parses and verifies a checkpoint image.
class CheckpointReader {
 public:
  struct SectionInfo {
    std::string name;
    uint64_t offset = 0;  // Absolute offset of the payload in the file.
    uint64_t size = 0;
    uint32_t crc = 0;
  };

  /// Reads the file and parses header + section table (structural checks
  /// plus the table CRC; payload CRCs are checked per access/Verify).
  util::Status Open(const std::string& path);

  /// Same, over an in-memory image (the buffer is copied).
  util::Status Parse(std::string image);

  uint64_t sequence() const { return sequence_; }
  const std::vector<SectionInfo>& sections() const { return sections_; }
  size_t file_size() const { return image_.size(); }

  /// Recomputes one section's CRC; DataLoss on mismatch.
  util::Status VerifySection(const SectionInfo& info) const;

  /// Verifies every section.
  util::Status Verify() const;

  /// CRC-verifies the named section and returns a bounds-checked reader
  /// over its payload. NotFound / DataLoss on failure.
  util::Result<util::BinaryReader> Section(std::string_view name) const;

 private:
  std::string image_;
  uint64_t sequence_ = 0;
  std::vector<SectionInfo> sections_;
};

}  // namespace latest::persist

#endif  // LATEST_PERSIST_CHECKPOINT_FORMAT_H_
