#include "workload/csv_loader.h"

#include <charconv>
#include <fstream>
#include <sstream>

namespace latest::workload {

namespace {

// Splits a view at the first `delim`; returns false when absent.
bool SplitOnce(std::string_view in, char delim, std::string_view* head,
               std::string_view* tail) {
  const size_t pos = in.find(delim);
  if (pos == std::string_view::npos) return false;
  *head = in.substr(0, pos);
  *tail = in.substr(pos + 1);
  return true;
}

util::Status ParseDouble(std::string_view field, const char* name,
                         double* out) {
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), *out);
  if (ec != std::errc() || ptr != field.data() + field.size()) {
    return util::Status::InvalidArgument(std::string("bad ") + name +
                                         " field: '" + std::string(field) +
                                         "'");
  }
  return util::Status::Ok();
}

util::Status ParseTimestamp(std::string_view field, stream::Timestamp* out) {
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), *out);
  if (ec != std::errc() || ptr != field.data() + field.size()) {
    return util::Status::InvalidArgument("bad timestamp field: '" +
                                         std::string(field) + "'");
  }
  return util::Status::Ok();
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

util::Status ParseCsvLine(std::string_view line,
                          stream::KeywordDictionary* dictionary,
                          stream::GeoTextObject* out) {
  std::string_view rest = line;
  std::string_view ts_field;
  std::string_view lon_field;
  std::string_view lat_field;
  if (!SplitOnce(rest, ',', &ts_field, &rest) ||
      !SplitOnce(rest, ',', &lon_field, &rest) ||
      !SplitOnce(rest, ',', &lat_field, &rest)) {
    return util::Status::InvalidArgument(
        "expected 'timestamp,lon,lat,keywords'");
  }
  LATEST_RETURN_IF_ERROR(ParseTimestamp(Trim(ts_field), &out->timestamp));
  if (out->timestamp < 0) {
    return util::Status::InvalidArgument("timestamp must be >= 0");
  }
  LATEST_RETURN_IF_ERROR(ParseDouble(Trim(lon_field), "lon", &out->loc.x));
  LATEST_RETURN_IF_ERROR(ParseDouble(Trim(lat_field), "lat", &out->loc.y));

  out->keywords.clear();
  std::string_view keywords = Trim(rest);
  while (!keywords.empty()) {
    std::string_view keyword;
    if (!SplitOnce(keywords, ';', &keyword, &keywords)) {
      keyword = keywords;
      keywords = {};
    }
    keyword = Trim(keyword);
    if (keyword.empty()) continue;
    out->keywords.push_back(dictionary->Intern(keyword));
  }
  stream::CanonicalizeKeywords(&out->keywords);
  return util::Status::Ok();
}

util::Result<CsvStream> ParseCsvStream(std::string_view content,
                                       stream::KeywordDictionary* dictionary,
                                       const CsvLoadOptions& options) {
  CsvStream result;
  size_t line_number = 0;
  size_t start = 0;
  stream::Timestamp previous = -1;
  while (start < content.size()) {
    size_t end = content.find('\n', start);
    if (end == std::string_view::npos) end = content.size();
    const std::string_view line = Trim(content.substr(start, end - start));
    start = end + 1;
    ++line_number;
    if (line.empty() || line.front() == '#') {
      ++result.lines_skipped;
      continue;
    }
    stream::GeoTextObject obj;
    obj.oid = result.objects.size();
    util::Status status = ParseCsvLine(line, dictionary, &obj);
    if (status.ok() && obj.timestamp < previous) {
      status = util::Status::InvalidArgument(
          "timestamps must be non-decreasing");
    }
    if (!status.ok()) {
      const util::Status annotated = util::Status::InvalidArgument(
          "line " + std::to_string(line_number) + ": " + status.message());
      if (!options.skip_malformed_rows) return annotated;
      ++result.rows_malformed;
      if (result.first_error.ok()) result.first_error = annotated;
      continue;
    }
    previous = obj.timestamp;
    result.objects.push_back(std::move(obj));
  }
  if (options.telemetry != nullptr) {
    options.telemetry
        ->GetCounter("workload_csv_rows_loaded_total",
                     "CSV rows parsed into stream objects")
        ->Increment(result.objects.size());
    options.telemetry
        ->GetCounter("workload_csv_lines_skipped_total",
                     "CSV comment/blank lines skipped")
        ->Increment(result.lines_skipped);
    options.telemetry
        ->GetCounter("workload_csv_rows_malformed_total",
                     "Malformed CSV rows dropped (tolerant mode)")
        ->Increment(result.rows_malformed);
  }
  return result;
}

util::Result<CsvStream> LoadCsvStream(const std::string& path,
                                      stream::KeywordDictionary* dictionary,
                                      const CsvLoadOptions& options) {
  std::ifstream file(path);
  if (!file.is_open()) {
    return util::Status::NotFound("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseCsvStream(buffer.str(), dictionary, options);
}

}  // namespace latest::workload
