// Chrome trace-event export of collected spans.
//
// Serializes a SpanCollector's retained spans as the JSON Object Format
// of the Chrome trace-event specification — directly loadable in Perfetto
// (ui.perfetto.dev) and chrome://tracing. Every span becomes one complete
// ("ph":"X") event on its thread's track; metadata events name the
// process and threads so the UI shows stable labels.

#ifndef LATEST_OBS_TRACE_EXPORT_H_
#define LATEST_OBS_TRACE_EXPORT_H_

#include <string>
#include <string_view>

#include "obs/span.h"
#include "util/status.h"

namespace latest::obs {

/// Appends `raw` to `out` escaped for the inside of a JSON string: quote,
/// backslash and line feed get their short escapes, every other control
/// character its \u00XX form. The one JSON string escaper of the
/// observability pages and the trace export.
void AppendJsonEscaped(std::string_view raw, std::string* out);

/// Renders the collector's retained spans as a Chrome trace-event JSON
/// document: {"displayTimeUnit":"ms","traceEvents":[...]}.
/// `process_name` labels the single process track.
std::string TraceEventJson(const SpanCollector& collector,
                           const std::string& process_name = "latest");

/// Writes TraceEventJson to `path` (truncating). IO errors surface as
/// util::Status.
util::Status WriteTraceEventFile(const SpanCollector& collector,
                                 const std::string& path,
                                 const std::string& process_name = "latest");

}  // namespace latest::obs

#endif  // LATEST_OBS_TRACE_EXPORT_H_
