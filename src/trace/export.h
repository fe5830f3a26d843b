// Trace exporters.
//
// Two formats:
//  * Chrome trace-event JSON — loadable in Perfetto (ui.perfetto.dev) or
//    chrome://tracing. Per-core run slices ("X" events, one lane per core),
//    runqueue-depth counter tracks, and instant events for everything else.
//  * CSV — one row per record (`ts_ns,core,kind,kind_name,tid,arg0,arg1`),
//    for ad-hoc analysis with pandas/awk.
//
// `validate_chrome_trace_json` checks the trace-event envelope against a
// `json::Shape` table (export.cc), so an exported file is known loadable
// before a human ever opens it; the ctest smoke tests use it.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace.h"

namespace eo::trace {

/// Writes the Chrome trace-event JSON for `t` to `os`.
void write_chrome_json(const Trace& t, std::ostream& os);

/// Writes the compact CSV form of `t` to `os`.
void write_csv(const Trace& t, std::ostream& os);

/// Renders `t` in the given format ("json" or "csv") as a string.
std::string render(const Trace& t, const std::string& format);

/// Writes `t` to `path` in the given format. JSON output is validated with
/// `validate_chrome_trace_json` before the file is written. Returns false
/// (and fills `err`) on validation or I/O failure.
bool export_to_file(const Trace& t, const std::string& path,
                    const std::string& format, std::string* err);

/// Structural validator for Chrome trace JSON: the text must parse as JSON,
/// the root must be an object with a "traceEvents" array, and every element
/// must be an object carrying a non-empty string "ph" and a string "name"
/// (plus a non-negative numeric "ts" for non-metadata phases).
bool validate_chrome_trace_json(const std::string& text, std::string* err);

}  // namespace eo::trace
