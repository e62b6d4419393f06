#include "obs/trace_export.h"

#include <algorithm>
#include <cstdio>
#include <set>

namespace latest::obs {

namespace {

/// Microseconds with sub-µs precision — the unit of trace-event "ts".
void AppendMicros(int64_t nanos, std::string* out) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(nanos) / 1000.0);
  *out += buf;
}

}  // namespace

void AppendJsonEscaped(std::string_view raw, std::string* out) {
  for (const char c : raw) {
    switch (c) {
      case '\\':
        *out += "\\\\";
        break;
      case '"':
        *out += "\\\"";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

std::string TraceEventJson(const SpanCollector& collector,
                           const std::string& process_name) {
  std::vector<SpanRecord> spans = collector.Snapshot();
  // Perfetto accepts any order, but a time-sorted stream diffs cleanly
  // and keeps goldens stable.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.start_ns < b.start_ns;
                   });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out += "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":"
         "{\"name\":\"";
  AppendJsonEscaped(process_name, &out);
  out += "\"}}";

  std::set<uint32_t> tids;
  for (const SpanRecord& span : spans) tids.insert(span.tid);
  for (const uint32_t tid : tids) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  ",{\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                  "\"name\":\"thread_name\",\"args\":{\"name\":"
                  "\"latest-thread-%u\"}}",
                  tid, tid);
    out += buf;
  }

  for (const SpanRecord& span : spans) {
    out += ",{\"name\":\"";
    AppendJsonEscaped(span.name != nullptr ? span.name : "span", &out);
    out += "\",\"cat\":\"latest\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%u,\"ts\":", span.tid);
    out += buf;
    AppendMicros(span.start_ns, &out);
    out += ",\"dur\":";
    AppendMicros(span.duration_ns, &out);
    std::snprintf(buf, sizeof(buf),
                  ",\"args\":{\"id\":%llu,\"parent\":%llu,"
                  "\"trace_id\":%llu}}",
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent_id),
                  static_cast<unsigned long long>(span.trace_id));
    out += buf;
  }
  out += "]}";
  return out;
}

util::Status WriteTraceEventFile(const SpanCollector& collector,
                                 const std::string& path,
                                 const std::string& process_name) {
  const std::string json = TraceEventJson(collector, process_name);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return util::Status::NotFound("cannot open trace file: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), file);
  const bool flushed = std::fclose(file) == 0;
  if (written != json.size() || !flushed) {
    return util::Status::DataLoss("short write to trace file: " + path);
  }
  return util::Status::Ok();
}

}  // namespace latest::obs
