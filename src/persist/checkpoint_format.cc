#include "persist/checkpoint_format.h"

#include <utility>

#include "persist/crc32.h"
#include "persist/file_io.h"

namespace latest::persist {

namespace {

// magic + version + sequence + num_sections + table_crc.
constexpr size_t kFixedHeaderBytes = 4 + 4 + 8 + 4 + 4;
// The header CRC covers sequence + num_sections (the fields after the
// equality-checked magic/version) chained with the section table, so no
// single header byte can flip undetected.
uint32_t HeaderAndTableCrc(uint64_t sequence, uint32_t num_sections,
                           std::string_view table) {
  util::BinaryWriter covered;
  covered.WriteU64(sequence);
  covered.WriteU32(num_sections);
  return Crc32(table, Crc32(covered.buffer()));
}

}  // namespace

util::BinaryWriter* CheckpointWriter::AddSection(std::string name) {
  sections_.push_back(
      Section{std::move(name), std::make_unique<util::BinaryWriter>()});
  return sections_.back().payload.get();
}

std::string CheckpointWriter::Finish(uint64_t sequence) const {
  // The table references absolute payload offsets, so it must be laid out
  // before the offsets are known — build it twice: once to measure, once
  // for real. Offsets shift by the table size only, which is identical in
  // both passes because name lengths and entry counts are fixed.
  const auto build_table = [&](uint64_t payload_base) {
    util::BinaryWriter table;
    uint64_t offset = payload_base;
    for (const Section& section : sections_) {
      table.WriteString(section.name);
      table.WriteU64(offset);
      const std::string& bytes = section.payload->buffer();
      table.WriteU64(bytes.size());
      table.WriteU32(Crc32(bytes));
      offset += bytes.size();
    }
    return table.TakeBuffer();
  };
  const size_t table_size = build_table(0).size();
  const std::string table = build_table(kFixedHeaderBytes + table_size);

  util::BinaryWriter out;
  out.WriteU32(kCheckpointMagic);
  out.WriteU32(kCheckpointVersion);
  out.WriteU64(sequence);
  out.WriteU32(static_cast<uint32_t>(sections_.size()));
  out.WriteU32(HeaderAndTableCrc(
      sequence, static_cast<uint32_t>(sections_.size()), table));
  out.WriteBytes(table.data(), table.size());
  for (const Section& section : sections_) {
    const std::string& bytes = section.payload->buffer();
    out.WriteBytes(bytes.data(), bytes.size());
  }
  return out.TakeBuffer();
}

util::Status CheckpointReader::Open(const std::string& path) {
  std::string image;
  LATEST_RETURN_IF_ERROR(ReadFile(path, &image));
  return Parse(std::move(image));
}

util::Status CheckpointReader::Parse(std::string image) {
  image_ = std::move(image);
  sections_.clear();
  util::BinaryReader reader(image_);
  uint32_t magic;
  uint32_t version;
  uint32_t num_sections;
  uint32_t table_crc;
  if (!reader.ReadU32(&magic) || magic != kCheckpointMagic) {
    return util::Status::DataLoss("checkpoint: bad magic");
  }
  if (!reader.ReadU32(&version) || version != kCheckpointVersion) {
    return util::Status::DataLoss("checkpoint: unsupported format version");
  }
  if (!reader.ReadU64(&sequence_) || !reader.ReadU32(&num_sections) ||
      !reader.ReadU32(&table_crc)) {
    return util::Status::DataLoss("checkpoint: truncated header");
  }
  const size_t table_start = image_.size() - reader.remaining();
  for (uint32_t i = 0; i < num_sections; ++i) {
    SectionInfo info;
    if (!reader.ReadString(&info.name) || !reader.ReadU64(&info.offset) ||
        !reader.ReadU64(&info.size) || !reader.ReadU32(&info.crc)) {
      return util::Status::DataLoss("checkpoint: truncated section table");
    }
    if (info.offset > image_.size() ||
        info.size > image_.size() - info.offset) {
      return util::Status::DataLoss("checkpoint: section out of bounds");
    }
    sections_.push_back(std::move(info));
  }
  const size_t table_end = image_.size() - reader.remaining();
  const std::string_view table_bytes(image_.data() + table_start,
                                     table_end - table_start);
  if (HeaderAndTableCrc(sequence_, num_sections, table_bytes) != table_crc) {
    return util::Status::DataLoss("checkpoint: header/table CRC mismatch");
  }
  return util::Status::Ok();
}

util::Status CheckpointReader::VerifySection(const SectionInfo& info) const {
  const std::string_view payload(image_.data() + info.offset, info.size);
  if (Crc32(payload) != info.crc) {
    return util::Status::DataLoss("checkpoint: section '" + info.name +
                                  "' CRC mismatch");
  }
  return util::Status::Ok();
}

util::Status CheckpointReader::Verify() const {
  for (const SectionInfo& info : sections_) {
    LATEST_RETURN_IF_ERROR(VerifySection(info));
  }
  return util::Status::Ok();
}

util::Result<util::BinaryReader> CheckpointReader::Section(
    std::string_view name) const {
  for (const SectionInfo& info : sections_) {
    if (info.name != name) continue;
    LATEST_RETURN_IF_ERROR(VerifySection(info));
    return util::BinaryReader(
        std::string_view(image_.data() + info.offset, info.size));
  }
  return util::Status::NotFound("checkpoint: no section named '" +
                                std::string(name) + "'");
}

}  // namespace latest::persist
