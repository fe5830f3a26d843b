// Table-driven pin of every document validator's verdicts. Each case takes
// one real document, and for every object member at every depth builds two
// mutants: one with the member deleted, one with its value swapped for a
// value of another JSON type. Each mutant's verdict is checked against the
// case's explicit list of mutations the validator accepts (the optional or
// unchecked members); everything else must be rejected. Array elements are
// written `[]` in the member paths, so one entry covers every element.
#include <gtest/gtest.h>

#include <charconv>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "exp/result.h"
#include "metrics/experiment.h"
#include "obs/export.h"
#include "obs/fleet_agg.h"
#include "runtime/sim_thread.h"
#include "trace/export.h"

namespace eo {
namespace {

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

/// One small run that yields all three kernel documents: a futex ping-pong
/// next to a compute+yield thread on two cores, with telemetry (short
/// sampling interval), per-task accounting and tracing on.
const metrics::RunResult& small_run() {
  static const metrics::RunResult r = [] {
    metrics::RunConfig rc;
    rc.cpus = 2;
    rc.sockets = 1;
    rc.features = core::Features::optimized();
    rc.deadline = 1_s;
    rc.metrics.enabled = true;
    rc.metrics.interval = 50_us;
    rc.taskstats = true;
    rc.trace.enabled = true;
    return metrics::run_experiment(rc, [](kern::Kernel& k) {
      kern::SimWord* a = k.alloc_word(0);
      kern::SimWord* b = k.alloc_word(0);
      runtime::spawn(k, "waiter",
                     [a, b](runtime::Env env) -> runtime::SimThread {
                       for (int r = 0; r < 4; ++r) {
                         co_await env.futex_wait(a, 0);
                         co_await env.store(a, 0);
                         co_await env.store(b, 1);
                         co_await env.futex_wake(b, 1);
                       }
                       co_return;
                     });
      runtime::spawn(k, "waker",
                     [a, b](runtime::Env env) -> runtime::SimThread {
                       for (int r = 0; r < 4; ++r) {
                         co_await env.compute(20_us);
                         co_await env.store(a, 1);
                         co_await env.futex_wake(a, 1);
                         co_await env.futex_wait(b, 0);
                         co_await env.store(b, 0);
                       }
                       co_return;
                     });
      runtime::spawn(k, "spin", [](runtime::Env env) -> runtime::SimThread {
        for (int r = 0; r < 4; ++r) {
          co_await env.compute(30_us);
          co_await env.yield();
        }
        co_return;
      });
    });
  }();
  return r;
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
  const metrics::RunResult& r = small_run();
  ASSERT_NE(r.metrics, nullptr);
  obs::MetricsDoc host1 = *r.metrics;
  host1.watchdog_violations = 1;
  host1.violation_records.push_back({/*ts=*/42, "affinity", "injected"});
  obs::FleetAggregator agg;
  for (int h = 0; h < 2; ++h) {
    obs::FleetHostSample s;
    s.host = h;
    s.doc = h == 0 ? r.metrics.get() : &host1;
    s.histograms.emplace_back("kern.wakeup_latency", &r.wakeup_latency);
    s.issued = 10;
    s.completed = 9;
    s.shed = 1;
    agg.add_host(s);
  }
  check_verdicts(obs::render_fleet(agg.finish(), "json"),
                 obs::validate_fleet_metrics_json,
                 {
                     // A watchdog record's detail text is free-form.
                     {"watchdog.records[].detail", Mutation::kDelete},
                     {"watchdog.records[].detail", Mutation::kSwapType},
                 });
}

TEST(ValidatorMutation, BenchResultGolden) {
  std::ifstream f(EO_GOLDEN_DIR "/BENCH_fig09_vb_blocking.json");
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  // Every member of the golden grid is required.
  check_verdicts(ss.str(), exp::validate_result_json, {});
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

}  // namespace
}  // namespace eo
