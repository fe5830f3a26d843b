#include "obs/taskstats.h"

#include <charconv>
#include <sstream>

#include "common/json.h"

namespace eo::obs {

const char* to_string(TaskDelayState s) {
  switch (s) {
#define EO_TDS_NAME(name, wire)  \
  case TaskDelayState::name:     \
    return #wire;
    EO_TASK_DELAY_STATES(EO_TDS_NAME)
#undef EO_TDS_NAME
  }
  return "?";
}

void write_taskstats_json(json::Writer& w, const TaskstatsDoc& doc) {
  w.begin_object();
  w.field("schema", kTaskstatsSchemaName);
  w.field("schema_version", kTaskstatsSchemaVersion);
  w.field("n_tasks", static_cast<std::uint64_t>(doc.tasks.size()));
  w.key("tasks");
  w.begin_array();
  for (const TaskstatsRecord& r : doc.tasks) {
    w.begin_object();
    w.field("tid", r.tid);
    w.field("name", r.name);
    w.field("finished", r.finished);
    w.field("lifetime_ns", static_cast<std::int64_t>(r.lifetime));
#define EO_TDS_FIELD(name, wire)                 \
    w.field(#wire "_ns", static_cast<std::int64_t>( \
                             r.times[TaskDelayState::name]));
    EO_TASK_DELAY_STATES(EO_TDS_FIELD)
#undef EO_TDS_FIELD
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

namespace {

bool tasks_counted(const json::Value& doc, std::string* why) {
  return static_cast<double>(doc.get("tasks")->items.size()) ==
             doc.get("n_tasks")->num ||
         json::fail(why, "'n_tasks' disagrees with the tasks array");
}

/// Conservation: a task's state times sum to its kernel-ground-truth
/// lifetime exactly. Both sides are integers well under 2^53, so double
/// equality is exact here.
bool conserved(const json::Value& task, std::string* why) {
  double sum = 0;
#define EO_TDS_SUM(name, wire) sum += task.get(#wire "_ns")->num;
  EO_TASK_DELAY_STATES(EO_TDS_SUM)
#undef EO_TDS_SUM
  const auto num = [](double v) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  };
  const double lifetime = task.get("lifetime_ns")->num;
  return sum == lifetime ||
         json::fail(why, "task tid=" + num(task.get("tid")->num) +
                             " state times sum to " + num(sum) +
                             " != lifetime_ns " + num(lifetime));
}

}  // namespace

const json::Shape& taskstats_shape() {
  static const json::Shape shape = [] {
    const json::Shape time = json::number(json::non_negative);
    const json::Shape task = json::object(
        {"tid", {"name", json::text()}, {"finished", json::boolean()},
         {"lifetime_ns", time},
#define EO_TDS_MEMBER(name, wire) {#wire "_ns", time},
         EO_TASK_DELAY_STATES(EO_TDS_MEMBER)
#undef EO_TDS_MEMBER
        },
        conserved);
    return json::document(kTaskstatsSchemaName, kTaskstatsSchemaVersion,
                          {"n_tasks", {"tasks", json::array_of(task)}},
                          tasks_counted);
  }();
  return shape;
}

bool validate_taskstats_value(const json::Value& v, std::string* err) {
  return json::check(v, taskstats_shape(), err);
}

namespace {

/// The folded format delimits frames with ';' and the count with the last
/// space, so those characters cannot appear inside a frame name.
std::string sanitize_frame(const std::string& s) {
  std::string out = s.empty() ? std::string("?") : s;
  for (char& c : out) {
    if (c == ';') c = ':';
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') c = '_';
  }
  return out;
}

}  // namespace

std::string render_folded(const TaskstatsDoc& doc,
                          const std::string& workload) {
  std::ostringstream os;
  const std::string root = sanitize_frame(workload);
  for (const TaskstatsRecord& r : doc.tasks) {
    // Task frames are "<name>/<tid>" so same-named workers stay distinct
    // stacks instead of merging into one frame.
    const std::string task =
        sanitize_frame(r.name) + "/" + std::to_string(r.tid);
    for (std::size_t i = 0; i < kNumTaskDelayStates; ++i) {
      const SimDuration ns = r.times.t[i];
      if (ns <= 0) continue;
      os << root << ';' << task << ';'
         << to_string(static_cast<TaskDelayState>(i)) << ' ' << ns << '\n';
    }
  }
  return os.str();
}

}  // namespace eo::obs
