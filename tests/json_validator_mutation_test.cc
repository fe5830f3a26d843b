// Table-driven pin of every document validator's verdicts. Each case takes
// one real document, and for every object member at every depth builds two
// mutants: one with the member deleted, one with its value swapped for a
// value of another JSON type. Each mutant's verdict is checked against the
// case's explicit list of mutations the validator accepts (the optional or
// unchecked members); everything else must be rejected. Array elements are
// written `[]` in the member paths, so one entry covers every element.
//
// Checks on values rather than shape (axis arity, cell counts, sizes, order,
// prefixes, signs, conservation) get one targeted corruption each in the
// ValidatorRules table, which also pins the text the reason must carry.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "doc_samples.h"
#include "exp/result.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "trace/export.h"

namespace eo {
namespace {

using test::small_run;

using Validator = std::function<bool(const std::string&, std::string*)>;

/// Value-to-text: the inverse of json::parse, enough to re-render a mutant.
/// Numbers print shortest-round-trip, so an unmutated document re-parses to
/// the same values.
void write_value(const json::Value& v, std::string* out) {
  switch (v.type) {
    case json::Value::kNull:
      *out += "null";
      return;
    case json::Value::kBool:
      *out += v.b ? "true" : "false";
      return;
    case json::Value::kNumber: {
      char buf[40];
      const auto res = std::to_chars(buf, buf + sizeof(buf), v.num);
      out->append(buf, res.ptr);
      return;
    }
    case json::Value::kString:
      *out += '"' + json::escape(v.str) + '"';
      return;
    case json::Value::kArray:
      *out += '[';
      for (std::size_t i = 0; i < v.items.size(); ++i) {
        if (i > 0) *out += ',';
        write_value(v.items[i], out);
      }
      *out += ']';
      return;
    case json::Value::kObject:
      *out += '{';
      for (std::size_t i = 0; i < v.fields.size(); ++i) {
        if (i > 0) *out += ',';
        *out += '"' + json::escape(v.fields[i].first) + "\":";
        write_value(v.fields[i].second, out);
      }
      *out += '}';
      return;
  }
}

std::string to_text(const json::Value& v) {
  std::string out;
  write_value(v, &out);
  return out;
}

/// The value at a dotted path below `v`; numeric segments index arrays.
/// Throws std::out_of_range when the path does not exist.
json::Value& at(json::Value& v, const std::string& path) {
  json::Value* cur = &v;
  for (std::size_t pos = 0; pos < path.size();) {
    const std::size_t dot = std::min(path.find('.', pos), path.size());
    const std::string seg = path.substr(pos, dot - pos);
    if (cur->is_array()) {
      cur = &cur->items.at(std::stoul(seg));
    } else {
      const auto it =
          std::find_if(cur->fields.begin(), cur->fields.end(),
                       [&](const auto& f) { return f.first == seg; });
      if (it == cur->fields.end()) throw std::out_of_range(path);
      cur = &it->second;
    }
    pos = dot + 1;
  }
  return *cur;
}

/// Deletes member `key` of the object at `path` below `v`.
void erase(json::Value& v, const std::string& path, const std::string& key) {
  auto& fields = at(v, path).fields;
  fields.erase(std::remove_if(fields.begin(), fields.end(),
                              [&](const auto& f) { return f.first == key; }),
               fields.end());
}

/// A value of another JSON type: numbers become strings, everything else a
/// number.
json::Value other_type(const json::Value& v) {
  json::Value out;
  if (v.is_number()) {
    out.type = json::Value::kString;
    out.str = "1";
  } else {
    out.type = json::Value::kNumber;
    out.num = 1;
  }
  return out;
}

enum class Mutation { kDelete, kSwapType };

const char* to_string(Mutation m) {
  return m == Mutation::kDelete ? "delete" : "swap-type";
}

/// One accepted mutation: the member path (`a.b[].c`) and the mutation.
using Accepted = std::pair<std::string, Mutation>;

struct Verdicts {
  std::size_t mutants = 0;
  std::vector<std::string> mismatches;
  std::set<Accepted> accepted_seen;
};

/// Mutates every member below `node` in place (restoring it afterwards),
/// validating the whole document `root` after each mutation.
void mutate_members(json::Value& root, json::Value& node,
                    const std::string& path, const Validator& validate,
                    const std::set<Accepted>& accepted, Verdicts* out) {
  if (node.is_array()) {
    for (auto& item : node.items) {
      mutate_members(root, item, path + "[]", validate, accepted, out);
    }
    return;
  }
  if (!node.is_object()) return;
  for (std::size_t i = 0; i < node.fields.size(); ++i) {
    const std::string member =
        path.empty() ? node.fields[i].first : path + "." + node.fields[i].first;
    for (const Mutation m : {Mutation::kDelete, Mutation::kSwapType}) {
      const auto saved = node.fields[i];
      if (m == Mutation::kDelete) {
        node.fields.erase(node.fields.begin() +
                          static_cast<std::ptrdiff_t>(i));
      } else {
        node.fields[i].second = other_type(saved.second);
      }
      std::string err;
      const bool ok = validate(to_text(root), &err);
      if (m == Mutation::kDelete) {
        node.fields.insert(node.fields.begin() +
                               static_cast<std::ptrdiff_t>(i),
                           saved);
      } else {
        node.fields[i] = saved;
      }
      ++out->mutants;
      const bool expect_ok = accepted.count({member, m}) > 0;
      if (ok) out->accepted_seen.insert({member, m});
      if (ok != expect_ok) {
        out->mismatches.push_back(std::string(to_string(m)) + " " + member +
                                  (ok ? ": accepted" : ": rejected (" + err +
                                                           ")"));
      }
    }
    mutate_members(root, node.fields[i].second, member, validate, accepted,
                   out);
  }
}

void check_verdicts(const std::string& text, const Validator& validate,
                    const std::set<Accepted>& accepted) {
  json::Value root;
  std::string err;
  ASSERT_TRUE(json::parse(text, &root, &err)) << err;
  // The re-rendered original must pass, or every verdict below is noise.
  ASSERT_TRUE(validate(to_text(root), &err)) << err;
  Verdicts v;
  mutate_members(root, root, "", validate, accepted, &v);
  EXPECT_GT(v.mutants, 0u);
  // Keep failure output readable: the first few mismatches say it all.
  for (std::size_t i = 0; i < v.mismatches.size() && i < 20; ++i) {
    ADD_FAILURE() << v.mismatches[i];
  }
  EXPECT_EQ(v.mismatches.size(), 0u);
  // Every listed mutation must occur in the document, so the list stays a
  // statement about this validator rather than a stale allowance.
  for (const auto& a : accepted) {
    EXPECT_TRUE(v.accepted_seen.count(a) > 0)
        << to_string(a.second) << " " << a.first << " never accepted";
  }
}

TEST(ValidatorMutation, MetricsWithTaskstats) {
  const metrics::RunResult& r = small_run();
  ASSERT_TRUE(r.completed);
  ASSERT_NE(r.metrics, nullptr);
  ASSERT_NE(r.metrics->taskstats, nullptr);
  ASSERT_FALSE(r.metrics->tick_series.empty());
  ASSERT_FALSE(r.metrics->histograms.empty());
  check_verdicts(obs::render(*r.metrics, "json"), obs::validate_metrics_json,
                 {
                     // The eo-taskstats section is optional.
                     {"taskstats", Mutation::kDelete},
                 });
}

TEST(ValidatorMutation, FleetWithHostViolation) {
  ASSERT_NE(small_run().metrics, nullptr);
  check_verdicts(test::fleet_text(), obs::validate_fleet_metrics_json,
                 {
                     // A watchdog record's detail text is free-form.
                     {"watchdog.records[].detail", Mutation::kDelete},
                     {"watchdog.records[].detail", Mutation::kSwapType},
                 });
}

TEST(ValidatorMutation, BenchResultGolden) {
  const std::string golden = test::golden_text("BENCH_fig09_vb_blocking.json");
  ASSERT_FALSE(golden.empty());
  // Every member of the golden grid is required.
  check_verdicts(golden, exp::validate_result_json, {});
}

TEST(ValidatorMutation, ChromeTrace) {
  const metrics::RunResult& r = small_run();
  ASSERT_NE(r.trace, nullptr);
  ASSERT_FALSE(r.trace->events.empty());
  // The validator checks the trace-event envelope only: name, ph, and ts on
  // non-metadata events. Everything else is for the viewer.
  std::set<Accepted> accepted;
  for (const char* member :
       {"displayTimeUnit", "otherData", "otherData.dropped_events",
        "traceEvents[].pid", "traceEvents[].tid", "traceEvents[].s",
        "traceEvents[].dur", "traceEvents[].args", "traceEvents[].args.name",
        "traceEvents[].args.task", "traceEvents[].args.arg0",
        "traceEvents[].args.arg1", "traceEvents[].args.vruntime",
        "traceEvents[].args.voluntary", "traceEvents[].args.nr_running"}) {
    accepted.insert({member, Mutation::kDelete});
    accepted.insert({member, Mutation::kSwapType});
  }
  check_verdicts(trace::render(*r.trace, "json"),
                 trace::validate_chrome_trace_json, accepted);
}

/// An eo-bench-result document from the ResultDoc writer holding what the
/// fig09 golden lacks: a ran cell with `obs` and `extra`, an n/a cell,
/// skipped cells (the filter keeps 8T only), a free `meta` member and a
/// `meta.history` entry.
std::string result_doc_text() {
  exp::Sweep s("forms");
  s.axis("benchmark", {"hist", "scan"}).axis("threads", {"8T", "32T"});
  exp::RunnerOptions o;
  o.jobs = 1;
  o.filter = "/8T";
  const exp::Outcomes out = exp::ExperimentRunner(s, o).run(
      [](const exp::Cell& cell, const metrics::RunConfig&) {
        if (cell.at(0) == 1) return exp::CellRun::na();
        exp::CellRun r;
        r.run.completed = true;
        r.run.metrics = std::make_shared<obs::MetricsDoc>();
        r.set("tput_ops_s", 2.5);
        return r;
      });
  exp::ResultDoc doc("forms_bench", 0.5, 3);
  doc.set_meta("git_rev", "0123abcd");
  doc.set_meta("host", "vm");
  exp::PerfHistoryEntry e;
  e.git_rev = "aaaa0001";
  e.stamp = "2026-08-01T00:00:00Z";
  e.ns_per_item = {{"engine_schedule_fire", 60.5}};
  doc.add_history(e);
  doc.add_sweep(s, out);
  return doc.render();
}

TEST(ValidatorMutation, BenchResultEveryCellForm) {
  const std::string text = result_doc_text();
  ASSERT_NE(text.find("\"skipped\":true"), std::string::npos);
  ASSERT_NE(text.find("\"na\":true"), std::string::npos);
  ASSERT_NE(text.find("\"obs\":{"), std::string::npos);
  check_verdicts(text, exp::validate_result_json,
                 {
                     // `meta` is free-form beyond git_rev and history.
                     {"meta.host", Mutation::kDelete},
                     {"meta.host", Mutation::kSwapType},
                     {"meta.history", Mutation::kDelete},
                     {"meta.history[].engine_schedule_fire", Mutation::kDelete},
                     // A ran cell's telemetry summary and derived values
                     // are optional; so is each derived value.
                     {"sweeps[].cells[].obs", Mutation::kDelete},
                     {"sweeps[].cells[].extra", Mutation::kDelete},
                     {"sweeps[].cells[].extra.tput_ops_s", Mutation::kDelete},
                 });
}

TEST(ValidatorRules, EveryValueRuleRejectsItsCorruption) {
  const metrics::RunResult& r = small_run();
  ASSERT_NE(r.metrics, nullptr);
  ASSERT_NE(r.trace, nullptr);
  const std::string result = result_doc_text();
  const std::string metrics = obs::render(*r.metrics, "json");
  const std::string fleet = test::fleet_text();
  const std::string trace = trace::render(*r.trace, "json");
  // The first timed trace event: the metadata ("M") events lead.
  json::Value tv;
  ASSERT_TRUE(json::parse(trace, &tv, nullptr));
  std::size_t timed = 0;
  while (at(tv, "traceEvents." + std::to_string(timed) + ".ph").str == "M") {
    ++timed;
  }
  const std::string ev = "traceEvents." + std::to_string(timed);
  const std::string ev_at = "traceEvents[" + std::to_string(timed) + "]";

  using Edit = std::function<void(json::Value&)>;
  const struct {
    const char* rule;
    const std::string& doc;
    Validator validate;
    Edit edit;
    std::string want;  // must occur in the reason
  } cases[] = {
      {"coords arity", result, exp::validate_result_json,
       [](json::Value& d) {
         const json::Value extra = at(d, "sweeps.0.cells.0.coords.0");
         at(d, "sweeps.0.cells.0.coords").items.push_back(extra);
       },
       "coords"},
      {"coords in axis values", result, exp::validate_result_json,
       [](json::Value& d) { at(d, "sweeps.0.cells.0.coords.0").str = "zzz"; },
       "axis values"},
      {"cell count is the axis product", result, exp::validate_result_json,
       [](json::Value& d) { at(d, "sweeps.0.cells").items.pop_back(); },
       "cells"},
      {"history cap", result, exp::validate_result_json,
       [](json::Value& d) {
         auto& h = at(d, "meta.history").items;
         const json::Value entry = h.front();
         while (h.size() <= exp::ResultDoc::kMaxHistory) h.push_back(entry);
       },
       "history"},
      {"positive scale", result, exp::validate_result_json,
       [](json::Value& d) { at(d, "scale").num = 0; }, "scale"},
      {"non-empty bench", result, exp::validate_result_json,
       [](json::Value& d) { at(d, "bench").str.clear(); }, "bench"},
      {"non-empty sweeps", result, exp::validate_result_json,
       [](json::Value& d) { at(d, "sweeps").items.clear(); }, "sweeps"},
      {"non-empty axis values", result, exp::validate_result_json,
       [](json::Value& d) { at(d, "sweeps.0.axes.0.values").items.clear(); },
       "values"},
      {"n_cores core series", metrics, obs::validate_metrics_json,
       [](json::Value& d) { at(d, "n_cores").num += 1; }, "n_cores"},
      {"positive n_cores", metrics, obs::validate_metrics_json,
       [](json::Value& d) {
         at(d, "n_cores").num = 0;
         at(d, "series.cores").items.clear();
       },
       "n_cores"},
      {"one sample per tick", metrics, obs::validate_metrics_json,
       [](json::Value& d) { at(d, "series.cores.1.samples").items.pop_back(); },
       "samples"},
      {"non-empty counter name", metrics, obs::validate_metrics_json,
       [](json::Value& d) { at(d, "counters.0.name").str.clear(); }, "name"},
      {"n_tasks is the task count", metrics, obs::validate_metrics_json,
       [](json::Value& d) { at(d, "taskstats.n_tasks").num += 1; }, "n_tasks"},
      {"non-negative lifetime_ns", metrics, obs::validate_metrics_json,
       [](json::Value& d) { at(d, "taskstats.tasks.0.lifetime_ns").num = -1; },
       "lifetime_ns"},
      {"taskstats conservation", metrics, obs::validate_metrics_json,
       [](json::Value& d) { at(d, "taskstats.tasks.0.oncpu_ns").num += 1; },
       "tid="},
      {"n_hosts host entries", fleet, obs::validate_fleet_metrics_json,
       [](json::Value& d) { at(d, "n_hosts").num += 1; }, "n_hosts"},
      {"positive n_hosts", fleet, obs::validate_fleet_metrics_json,
       [](json::Value& d) {
         at(d, "n_hosts").num = 0;
         at(d, "hosts").items.clear();
       },
       "n_hosts"},
      {"hosts sorted", fleet, obs::validate_fleet_metrics_json,
       [](json::Value& d) { std::swap(at(d, "hosts.0"), at(d, "hosts.1")); },
       "sorted"},
      {"host= prefix", fleet, obs::validate_fleet_metrics_json,
       [](json::Value& d) {
         at(d, "watchdog.records.0.invariant").str = "affinity";
       },
       "host="},
      {"non-negative ts", trace, trace::validate_chrome_trace_json,
       [ev](json::Value& d) { at(d, ev + ".ts").num = -1; }, "non-negative"},
      {"ts unless ph is M", trace, trace::validate_chrome_trace_json,
       [ev](json::Value& d) { erase(d, ev, "ts"); }, ev_at},
      {"non-empty ph", trace, trace::validate_chrome_trace_json,
       [ev](json::Value& d) { at(d, ev + ".ph").str.clear(); }, "ph"},
  };
  for (const auto& c : cases) {
    json::Value d;
    ASSERT_TRUE(json::parse(c.doc, &d, nullptr)) << c.rule;
    std::string err;
    ASSERT_TRUE(c.validate(to_text(d), &err)) << c.rule << ": " << err;
    c.edit(d);
    EXPECT_FALSE(c.validate(to_text(d), &err)) << c.rule << ": accepted";
    EXPECT_NE(err.find(c.want), std::string::npos)
        << c.rule << ": reason '" << err << "' lacks '" << c.want << "'";
  }
  // A metadata event needs no timestamp.
  json::Value d = tv;
  at(d, ev + ".ph").str = "M";
  erase(d, ev, "ts");
  std::string err;
  EXPECT_TRUE(trace::validate_chrome_trace_json(to_text(d), &err)) << err;
}

}  // namespace
}  // namespace eo
