#include "trace/export.h"

#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/json.h"

namespace eo::trace {

namespace {

/// Microsecond timestamp with nanosecond precision, as Chrome expects.
std::string us(SimTime ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

}  // namespace

void write_chrome_json(const Trace& t, std::ostream& os) {
  std::map<std::int32_t, std::string> names(t.task_names.begin(),
                                            t.task_names.end());
  auto task_label = [&](std::int32_t tid) {
    auto it = names.find(tid);
    if (it == names.end()) return std::string("tid") + std::to_string(tid);
    return it->second + "/" + std::to_string(tid);
  };

  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // Metadata: one process, one named thread lane per core plus an ambient
  // lane for IRQ-context events.
  sep();
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"sim-kernel\"}}";
  for (int c = 0; c <= t.n_cores; ++c) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << c + 1
       << ",\"args\":{\"name\":\""
       << (c < t.n_cores ? "core " + std::to_string(c) : std::string("irq"))
       << "\"}}";
  }

  // Lane for a record: cores at tid 1..N, ambient at N+1.
  auto lane = [&](const TraceEvent& e) {
    const int c = e.core >= 0 && e.core < t.n_cores ? e.core : t.n_cores;
    return c + 1;
  };

  // Run slices: pair switch_in with the next switch_out on the same core.
  std::vector<SimTime> slice_start(static_cast<std::size_t>(t.n_cores) + 1, -1);
  std::vector<std::int32_t> slice_tid(static_cast<std::size_t>(t.n_cores) + 1,
                                      0);
  for (const TraceEvent& e : t.events) {
    const auto l = static_cast<std::size_t>(lane(e)) - 1;
    const auto kind = static_cast<EventKind>(e.kind);
    if (kind == EventKind::kSwitchIn) {
      slice_start[l] = e.ts;
      slice_tid[l] = e.tid;
      continue;
    }
    if (kind == EventKind::kSwitchOut && slice_start[l] >= 0) {
      sep();
      os << "{\"name\":\"" << json::escape(task_label(slice_tid[l]))
         << "\",\"ph\":\"X\",\"ts\":" << us(slice_start[l])
         << ",\"dur\":" << us(e.ts - slice_start[l]) << ",\"pid\":0,\"tid\":"
         << l + 1 << ",\"args\":{\"vruntime\":" << e.arg0
         << ",\"voluntary\":" << e.arg1 << "}}";
      slice_start[l] = -1;
      continue;
    }
    if (kind == EventKind::kEnqueue || kind == EventKind::kDequeue) {
      // Runqueue depth as a counter track per core.
      sep();
      os << "{\"name\":\"rq_depth core" << (e.core >= 0 ? e.core : -1)
         << "\",\"ph\":\"C\",\"ts\":" << us(e.ts)
         << ",\"pid\":0,\"args\":{\"nr_running\":" << e.arg0 << "}}";
      continue;
    }
    // Everything else: a thread-scoped instant on its core lane.
    sep();
    os << "{\"name\":\"" << to_string(kind)
       << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << us(e.ts)
       << ",\"pid\":0,\"tid\":" << lane(e) << ",\"args\":{\"task\":\""
       << json::escape(task_label(e.tid)) << "\",\"arg0\":" << e.arg0
       << ",\"arg1\":" << e.arg1 << "}}";
  }
  os << "\n],\"otherData\":{\"dropped_events\":\"" << t.dropped << "\"}}\n";
}

void write_csv(const Trace& t, std::ostream& os) {
  os << "ts_ns,core,kind,kind_name,tid,arg0,arg1\n";
  for (const TraceEvent& e : t.events) {
    os << e.ts << ',' << e.core << ',' << e.kind << ','
       << to_string(static_cast<EventKind>(e.kind)) << ',' << e.tid << ','
       << e.arg0 << ',' << e.arg1 << '\n';
  }
}

std::string render(const Trace& t, const std::string& format) {
  std::ostringstream os;
  if (format == "csv") {
    write_csv(t, os);
  } else {
    write_chrome_json(t, os);
  }
  return os.str();
}

bool export_to_file(const Trace& t, const std::string& path,
                    const std::string& format, std::string* err) {
  return json::write_file(
      path, render(t, format),
      format != "csv" ? validate_chrome_trace_json : nullptr, err);
}

namespace {

/// Every event but metadata ("M") carries a non-negative timestamp.
bool timed_unless_metadata(const json::Value& event, std::string* why) {
  static const json::Shape timed =
      json::object({{"ts", json::number(json::non_negative)}});
  return event.get("ph")->str == "M" || json::check(event, timed, why);
}

}  // namespace

// The trace-event envelope only: what the viewer needs to place each event.
bool validate_chrome_trace_json(const std::string& text, std::string* err) {
  static const json::Shape shape = json::object(
      {{"traceEvents",
        json::array_of(json::object({{"ph", json::text(json::non_empty)},
                                     {"name", json::text()}},
                                    timed_unless_metadata))}});
  return json::check_text(text, shape, err);
}

}  // namespace eo::trace
