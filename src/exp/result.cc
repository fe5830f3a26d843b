#include "exp/result.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/json.h"
#include "common/logging.h"

namespace eo::exp {

namespace {

/// Simulated nanoseconds to milliseconds for the JSON document.
double to_ms(SimDuration d) { return static_cast<double>(d) / 1e6; }

void write_cell(json::Writer& w, const CellOutcome& o) {
  w.begin_object();
  w.key("coords");
  w.begin_array();
  for (const auto& c : o.cell.coords) w.value(c);
  w.end_array();
  if (o.skipped) {
    w.field("skipped", true);
    w.end_object();
    return;
  }
  if (o.not_applicable) {
    w.field("na", true);
    w.end_object();
    return;
  }
  w.field("completed", o.run.completed);
  w.field("attempts", o.attempts);
  w.field("deadline_ms", to_ms(o.final_deadline));
  w.field("exec_ms", o.ms());
  w.field("utilization_percent", o.run.utilization_percent);
  w.field("spin_busy_ms", to_ms(o.run.spin_busy));
  w.field("context_switches", o.run.stats.context_switches);
  w.field("migrations_in_node", o.run.stats.migrations_in_node);
  w.field("migrations_cross_node", o.run.stats.migrations_cross_node);
  w.field("vb_parks", o.run.stats.vb_parks);
  w.field("wakeup_p50_ns", o.run.wakeup_latency.p50());
  w.field("wakeup_p95_ns", o.run.wakeup_latency.p95());
  w.field("wakeup_p99_ns", o.run.wakeup_latency.p99());
  w.field("wakeup_count", o.run.wakeup_latency.total_count());
  w.key("bwd");
  w.begin_object();
  w.field("windows", o.run.bwd.windows);
  w.field("tp", o.run.bwd.tp);
  w.field("fp", o.run.bwd.fp);
  w.field("fn", o.run.bwd.fn);
  w.field("tn", o.run.bwd.tn);
  w.end_object();
  if (o.run.metrics) {
    const obs::MetricsDoc& m = *o.run.metrics;
    w.key("obs");
    w.begin_object();
    w.field("samples", static_cast<std::uint64_t>(m.ticks));
    w.field("dropped_samples", static_cast<std::uint64_t>(m.dropped_ticks));
    w.field("watchdog_checks", m.watchdog_checks);
    w.field("watchdog_violations", m.watchdog_violations);
    w.end_object();
  }
  if (!o.extra.empty()) {
    w.key("extra");
    w.begin_object();
    for (const auto& [k, v] : o.extra) w.field(k, v);
    w.end_object();
  }
  w.end_object();
}

}  // namespace

void ResultDoc::add_sweep(const Sweep& sweep, const Outcomes& outcomes) {
  EO_CHECK_EQ(sweep.size(), outcomes.size());
  SweepBlock b;
  b.name = sweep.name();
  for (std::size_t a = 0; a < sweep.n_axes(); ++a) {
    b.axes.emplace_back(sweep.axis_name(a), sweep.labels(a));
  }
  b.cells.assign(outcomes.begin(), outcomes.end());
  sweeps_.push_back(std::move(b));
}

void ResultDoc::set_meta(const std::string& key, const std::string& value) {
  MetaEntry e;
  e.key = key;
  e.str = value;
  meta_.push_back(std::move(e));
}

void ResultDoc::set_meta(const std::string& key, double value) {
  MetaEntry e;
  e.key = key;
  e.num = value;
  e.is_num = true;
  meta_.push_back(std::move(e));
}

void ResultDoc::add_history(PerfHistoryEntry entry) {
  history_.push_back(std::move(entry));
  if (history_.size() > kMaxHistory) {
    history_.erase(history_.begin(),
                   history_.begin() +
                       static_cast<std::ptrdiff_t>(history_.size() -
                                                   kMaxHistory));
  }
}

std::string ResultDoc::render() const {
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object();
  w.field("schema", kResultSchemaName);
  w.field("schema_version", kResultSchemaVersion);
  w.field("bench", bench_id_);
  w.field("scale", scale_);
  w.field("seed", seed_);
  w.key("meta");
  w.begin_object();
  bool have_rev = false;
  for (const auto& e : meta_) have_rev = have_rev || e.key == "git_rev";
  if (!have_rev) w.field("git_rev", current_git_rev());
  for (const auto& e : meta_) {
    if (e.is_num) {
      w.field(e.key, e.num);
    } else {
      w.field(e.key, e.str);
    }
  }
  if (!history_.empty()) {
    w.key("history");
    w.begin_array();
    for (const auto& h : history_) {
      w.begin_object();
      w.field("git_rev", h.git_rev);
      w.field("stamp", h.stamp);
      for (const auto& [micro, ns] : h.ns_per_item) w.field(micro, ns);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  w.key("sweeps");
  w.begin_array();
  for (const auto& s : sweeps_) {
    w.begin_object();
    w.field("name", s.name);
    w.key("axes");
    w.begin_array();
    for (const auto& [name, values] : s.axes) {
      w.begin_object();
      w.field("name", name);
      w.key("values");
      w.begin_array();
      for (const auto& v : values) w.value(v);
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.key("cells");
    w.begin_array();
    for (const auto& c : s.cells) write_cell(w, c);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
  return os.str();
}

bool ResultDoc::write(const std::string& path, std::string* err) const {
  return json::write_file(path, render(), validate_result_json, err);
}

namespace {

/// A sweep holds one cell per grid point: the product of the axis sizes,
/// each with one coord per axis, drawn from that axis's values.
bool cells_match_axes(const json::Value& sweep, std::string* why) {
  const auto& axes = sweep.get("axes")->items;
  const auto& cells = sweep.get("cells")->items;
  std::size_t product = 1;
  for (const auto& ax : axes) product *= ax.get("values")->items.size();
  if (cells.size() != product) {
    return json::fail(why, std::to_string(cells.size()) +
                               " cells, expected " + std::to_string(product));
  }
  for (const auto& cell : cells) {
    const auto& coords = cell.get("coords")->items;
    if (coords.size() != axes.size()) {
      return json::fail(why, "cell coords of wrong arity");
    }
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const auto& values = axes[a].get("values")->items;
      if (std::none_of(values.begin(), values.end(), [&](const auto& v) {
            return v.str == coords[a].str;
          })) {
        return json::fail(why, "cell coord '" + coords[a].str +
                                   "' not in axis values");
      }
    }
  }
  return true;
}

bool history_capped(const json::Value& history, std::string* why) {
  return history.items.size() <= ResultDoc::kMaxHistory ||
         json::fail(why, "exceeds " + std::to_string(ResultDoc::kMaxHistory) +
                             " entries");
}

/// A cell that ran carries its results; a skipped or n/a one does not.
bool results_unless_skipped(const json::Value& cell, std::string* why) {
  static const json::Shape ran = json::object(
      {{"completed", json::boolean()}, "attempts", "deadline_ms", "exec_ms",
       "utilization_percent", "spin_busy_ms", "context_switches",
       "migrations_in_node", "migrations_cross_node", "vb_parks",
       "wakeup_p50_ns", "wakeup_p95_ns", "wakeup_p99_ns", "wakeup_count",
       {"bwd", json::object({"windows", "tp", "fp", "fn", "tn"})},
       {"obs",
        json::object({"samples", "dropped_samples", "watchdog_checks",
                      "watchdog_violations"}),
        json::kOptional},
       {"extra", json::map_of(json::number()), json::kOptional}});
  return cell.get("skipped") || cell.get("na") || json::check(cell, ran, why);
}

}  // namespace

const json::Shape& result_shape() {
  static const json::Shape shape = [] {
    const json::Shape history_entry = json::map_of(
        json::number(), {{"git_rev", json::text()}, {"stamp", json::text()}});
    const json::Shape axis = json::object(
        {{"name", json::text()},
         {"values", json::array_of(json::text(), json::non_empty)}});
    const json::Shape cell = json::object(
        {{"coords", json::array_of(json::text())},
         {"skipped", json::boolean(), json::kOptional},
         {"na", json::boolean(), json::kOptional}},
        results_unless_skipped);
    const json::Shape sweep = json::object(
        {{"name", json::text(json::non_empty)},
         {"axes", json::array_of(axis)},
         {"cells", json::array_of(cell)}},
        cells_match_axes);
    return json::document(
        kResultSchemaName, kResultSchemaVersion,
        {{"bench", json::text(json::non_empty)},
         {"scale", json::number(json::positive)},
         "seed",
         {"meta", json::object({{"git_rev", json::text()},
                                {"history",
                                 json::array_of(history_entry, history_capped),
                                 json::kOptional}})},
         {"sweeps", json::array_of(sweep, json::non_empty)}});
  }();
  return shape;
}

bool validate_result_json(const std::string& text, std::string* err) {
  return json::check_text(text, result_shape(), err);
}

std::vector<PerfHistoryEntry> parse_history(const std::string& text) {
  std::vector<PerfHistoryEntry> out;
  json::Value root;
  if (!json::parse(text, &root, nullptr) ||
      !json::check(root, result_shape(), nullptr)) {
    return out;
  }
  const json::Value* history = root.get("meta")->get("history");
  if (history == nullptr) return out;
  for (const json::Value& h : history->items) {
    PerfHistoryEntry e{h.get("git_rev")->str, h.get("stamp")->str, {}};
    for (const auto& [k, v] : h.fields) {
      if (k != "git_rev" && k != "stamp") e.ns_per_item.emplace_back(k, v.num);
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::string current_git_rev() {
  FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r");
  if (!p) return "unknown";
  char buf[64] = {0};
  std::string out;
  while (std::fgets(buf, sizeof(buf), p)) out += buf;
  ::pclose(p);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  if (out.empty() || out.find_first_not_of("0123456789abcdef") !=
                         std::string::npos) {
    return "unknown";
  }
  return out;
}

}  // namespace eo::exp
