// ResultDoc rendering and the eo-bench-result structural validator: a
// runner-produced document must validate and render deterministically; the
// validator must reject documents that drift from the schema.
#include <gtest/gtest.h>

#include "exp/result.h"
#include "exp/runner.h"
#include "exp/sweep.h"

namespace eo {
namespace {

using exp::Cell;
using exp::CellRun;
using exp::ExperimentRunner;
using exp::Outcomes;
using exp::ResultDoc;
using exp::RunnerOptions;
using exp::Sweep;
using exp::validate_result_json;

RunnerOptions quiet() {
  RunnerOptions o;
  o.jobs = 1;
  return o;
}

Sweep demo_sweep() {
  Sweep s("demo");
  s.axis("benchmark", {"hist", "scan"}).axis("threads", {"8T", "32T"});
  return s;
}

Outcomes run_demo(const Sweep& s) {
  return ExperimentRunner(s, quiet())
      .run([](const Cell& cell, const metrics::RunConfig&) {
        if (cell.at(0) == 1 && cell.at(1) == 1) return CellRun::na();
        CellRun r;
        r.run.completed = true;
        r.run.exec_time = static_cast<SimDuration>(1'000'000 * (cell.flat + 1));
        r.run.utilization_percent = 50.0 + static_cast<double>(cell.flat);
        r.set("tput_ops_s", 1e6 / static_cast<double>(cell.flat + 1));
        return r;
      });
}

ResultDoc demo_doc() {
  const Sweep s = demo_sweep();
  ResultDoc doc("demo_bench", 1.0, 7);
  doc.set_meta("git_rev", "0123abcd");  // pin the volatile block
  doc.add_sweep(s, run_demo(s));
  return doc;
}

TEST(ResultTest, RunnerProducedDocumentValidates) {
  std::string err;
  EXPECT_TRUE(validate_result_json(demo_doc().render(), &err)) << err;
}

TEST(ResultTest, RenderIsDeterministic) {
  // Two independently built documents from the same inputs are
  // byte-identical — the property behind same-seed --json reruns.
  EXPECT_EQ(demo_doc().render(), demo_doc().render());
}

TEST(ResultTest, HistoryRendersValidatesAndRoundTrips) {
  // The perf-trajectory history (bench_perf_smoke --gate) lives in the
  // volatile meta block: the document still validates, parse_history gets
  // the entries back, and entries beyond the cap age out oldest-first.
  ResultDoc doc = demo_doc();
  exp::PerfHistoryEntry e1;
  e1.git_rev = "aaaa0001";
  e1.stamp = "2026-08-01T00:00:00Z";
  e1.ns_per_item = {{"engine_schedule_fire", 60.5}, {"futex_round_trip", 330.0}};
  exp::PerfHistoryEntry e2;
  e2.git_rev = "aaaa0002";
  e2.stamp = "2026-08-02T00:00:00Z";
  e2.ns_per_item = {{"engine_schedule_fire", 58.25}};
  doc.add_history(e1);
  doc.add_history(e2);
  const std::string text = doc.render();
  std::string err;
  ASSERT_TRUE(validate_result_json(text, &err)) << err;
  const auto back = exp::parse_history(text);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].git_rev, "aaaa0001");
  EXPECT_EQ(back[1].stamp, "2026-08-02T00:00:00Z");
  ASSERT_EQ(back[0].ns_per_item.size(), 2u);
  EXPECT_EQ(back[0].ns_per_item[0].first, "engine_schedule_fire");
  EXPECT_DOUBLE_EQ(back[0].ns_per_item[0].second, 60.5);
  // Cap: appending far past kMaxHistory keeps only the newest entries.
  ResultDoc capped = demo_doc();
  for (std::size_t i = 0; i < ResultDoc::kMaxHistory + 10; ++i) {
    exp::PerfHistoryEntry e;
    e.git_rev = "rev" + std::to_string(i);
    e.stamp = "s";
    capped.add_history(e);
  }
  const auto kept = exp::parse_history(capped.render());
  ASSERT_EQ(kept.size(), ResultDoc::kMaxHistory);
  EXPECT_EQ(kept.front().git_rev, "rev10");
  EXPECT_EQ(kept.back().git_rev,
            "rev" + std::to_string(ResultDoc::kMaxHistory + 9));
  std::string err2;
  EXPECT_TRUE(validate_result_json(capped.render(), &err2)) << err2;
}

TEST(ResultValidatorTest, RejectsMalformedHistory) {
  ResultDoc doc = demo_doc();
  exp::PerfHistoryEntry e;
  e.git_rev = "aaaa0001";
  e.stamp = "2026-08-01T00:00:00Z";
  e.ns_per_item = {{"engine_schedule_fire", 60.5}};
  doc.add_history(e);
  const std::string good = doc.render();
  auto corrupt = [&](const std::string& from, const std::string& to) {
    const std::size_t pos = good.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    std::string out = good;
    out.replace(pos, from.size(), to);
    return out;
  };
  std::string err;
  EXPECT_FALSE(validate_result_json(
      corrupt("\"history\":[", "\"history\":0,\"x\":["), &err));
  EXPECT_FALSE(validate_result_json(
      corrupt("\"stamp\":\"2026-08-01T00:00:00Z\"", "\"stamp\":5"), &err));
  EXPECT_FALSE(validate_result_json(
      corrupt("\"engine_schedule_fire\":60.5",
              "\"engine_schedule_fire\":\"fast\""),
      &err));
  EXPECT_NE(err.find("history"), std::string::npos) << err;
}

TEST(ResultTest, SkippedAndNaCellsValidate) {
  const Sweep s = demo_sweep();
  RunnerOptions o = quiet();
  o.filter = "hist/";
  const Outcomes out = ExperimentRunner(s, o).run(
      [](const Cell&, const metrics::RunConfig&) {
        CellRun r;
        r.run.completed = true;
        return r;
      });
  ResultDoc doc("demo_bench", 1.0, 7);
  doc.set_meta("git_rev", "0123abcd");
  doc.add_sweep(s, out);
  std::string err;
  EXPECT_TRUE(validate_result_json(doc.render(), &err)) << err;
}

TEST(ResultTest, MultiSweepDocumentValidates) {
  const Sweep a = demo_sweep();
  Sweep b("second");
  b.axis("quantum", {"1us", "2us"});
  const Outcomes out_b = ExperimentRunner(b, quiet())
                             .run([](const Cell&, const metrics::RunConfig&) {
                               CellRun r;
                               r.run.completed = true;
                               return r;
                             });
  ResultDoc doc("demo_bench", 0.5, 3);
  doc.set_meta("git_rev", "0123abcd");
  doc.set_meta("host_note", 1.5);
  doc.add_sweep(a, run_demo(a));
  doc.add_sweep(b, out_b);
  std::string err;
  EXPECT_TRUE(validate_result_json(doc.render(), &err)) << err;
}

// --- validator reject cases ------------------------------------------------

/// A hand-written minimal valid document; the reject tests mutate it.
std::string minimal_doc(const std::string& schema_name, int version,
                        const std::string& cells) {
  return std::string("{\"schema\":\"") + schema_name +
         "\",\"schema_version\":" + std::to_string(version) +
         ",\"bench\":\"mini\",\"scale\":1,\"seed\":7,"
         "\"meta\":{\"git_rev\":\"abc123\"},"
         "\"sweeps\":[{\"name\":\"s\","
         "\"axes\":[{\"name\":\"a\",\"values\":[\"x\",\"y\"]}],"
         "\"cells\":[" +
         cells + "]}]}";
}

std::string full_cell(const std::string& coord) {
  return std::string("{\"coords\":[\"") + coord +
         "\"],\"completed\":true,\"attempts\":1,\"deadline_ms\":60000,"
         "\"exec_ms\":1.5,\"utilization_percent\":50,\"spin_busy_ms\":0,"
         "\"context_switches\":10,\"migrations_in_node\":0,"
         "\"migrations_cross_node\":0,\"vb_parks\":0,\"wakeup_p50_ns\":0,"
         "\"wakeup_p95_ns\":0,\"wakeup_p99_ns\":0,\"wakeup_count\":0,"
         "\"bwd\":{\"windows\":0,\"tp\":0,\"fp\":0,\"fn\":0,\"tn\":0}}";
}

TEST(ResultValidatorTest, AcceptsMinimalHandWrittenDocument) {
  std::string err;
  const std::string doc = minimal_doc(
      exp::kResultSchemaName, exp::kResultSchemaVersion,
      full_cell("x") + "," + full_cell("y"));
  EXPECT_TRUE(validate_result_json(doc, &err)) << err;
}

TEST(ResultValidatorTest, RejectsMalformedJson) {
  std::string err;
  EXPECT_FALSE(validate_result_json("{\"schema\":", &err));
  EXPECT_FALSE(validate_result_json("", &err));
}

TEST(ResultValidatorTest, RejectsWrongSchemaName) {
  std::string err;
  const std::string doc =
      minimal_doc("bogus-schema", exp::kResultSchemaVersion,
                  full_cell("x") + "," + full_cell("y"));
  EXPECT_FALSE(validate_result_json(doc, &err));
  EXPECT_NE(err.find("schema"), std::string::npos);
}

TEST(ResultValidatorTest, RejectsWrongSchemaVersion) {
  std::string err;
  const std::string doc =
      minimal_doc(exp::kResultSchemaName, exp::kResultSchemaVersion + 1,
                  full_cell("x") + "," + full_cell("y"));
  EXPECT_FALSE(validate_result_json(doc, &err));
  EXPECT_NE(err.find("schema_version"), std::string::npos);
}

TEST(ResultValidatorTest, RejectsCellCountMismatch) {
  std::string err;
  // Two axis values but only one cell.
  const std::string doc = minimal_doc(
      exp::kResultSchemaName, exp::kResultSchemaVersion, full_cell("x"));
  EXPECT_FALSE(validate_result_json(doc, &err));
  EXPECT_NE(err.find("cells"), std::string::npos);
}

TEST(ResultValidatorTest, RejectsCoordOutsideAxisValues) {
  std::string err;
  const std::string doc =
      minimal_doc(exp::kResultSchemaName, exp::kResultSchemaVersion,
                  full_cell("x") + "," + full_cell("z"));
  EXPECT_FALSE(validate_result_json(doc, &err));
  EXPECT_NE(err.find("axis values"), std::string::npos);
}

TEST(ResultValidatorTest, RejectsMissingNumericCellField) {
  std::string cell = full_cell("y");
  const std::size_t pos = cell.find("\"exec_ms\":1.5,");
  ASSERT_NE(pos, std::string::npos);
  cell.erase(pos, std::string("\"exec_ms\":1.5,").size());
  std::string err;
  const std::string doc = minimal_doc(
      exp::kResultSchemaName, exp::kResultSchemaVersion,
      full_cell("x") + "," + cell);
  EXPECT_FALSE(validate_result_json(doc, &err));
  EXPECT_NE(err.find("exec_ms"), std::string::npos);
}

TEST(ResultValidatorTest, RejectsMissingBwdBlock) {
  std::string cell = full_cell("y");
  const std::string bwd =
      ",\"bwd\":{\"windows\":0,\"tp\":0,\"fp\":0,\"fn\":0,\"tn\":0}";
  const std::size_t pos = cell.find(bwd);
  ASSERT_NE(pos, std::string::npos);
  cell.erase(pos, bwd.size());
  std::string err;
  const std::string doc = minimal_doc(
      exp::kResultSchemaName, exp::kResultSchemaVersion,
      full_cell("x") + "," + cell);
  EXPECT_FALSE(validate_result_json(doc, &err));
  EXPECT_NE(err.find("bwd"), std::string::npos);
}

TEST(ResultValidatorTest, RejectsNonNumericExtra) {
  std::string cell = full_cell("y");
  cell.insert(cell.size() - 1, ",\"extra\":{\"note\":\"fast\"}");
  std::string err;
  const std::string doc = minimal_doc(
      exp::kResultSchemaName, exp::kResultSchemaVersion,
      full_cell("x") + "," + cell);
  EXPECT_FALSE(validate_result_json(doc, &err));
  EXPECT_NE(err.find("extra"), std::string::npos);
}

TEST(ResultValidatorTest, RejectsMissingGitRev) {
  const std::string doc =
      "{\"schema\":\"eo-bench-result\",\"schema_version\":1,"
      "\"bench\":\"mini\",\"scale\":1,\"seed\":7,\"meta\":{},"
      "\"sweeps\":[{\"name\":\"s\","
      "\"axes\":[{\"name\":\"a\",\"values\":[\"x\"]}],"
      "\"cells\":[" +
      full_cell("x") + "]}]}";
  std::string err;
  EXPECT_FALSE(validate_result_json(doc, &err));
  EXPECT_NE(err.find("git_rev"), std::string::npos);
}

TEST(ResultValidatorTest, RejectsEmptySweepsAndBadScale) {
  std::string err;
  EXPECT_FALSE(validate_result_json(
      "{\"schema\":\"eo-bench-result\",\"schema_version\":1,"
      "\"bench\":\"mini\",\"scale\":1,\"seed\":7,"
      "\"meta\":{\"git_rev\":\"abc\"},\"sweeps\":[]}",
      &err));
  const std::string bad_scale =
      "{\"schema\":\"eo-bench-result\",\"schema_version\":1,"
      "\"bench\":\"mini\",\"scale\":0,\"seed\":7,"
      "\"meta\":{\"git_rev\":\"abc\"},\"sweeps\":[{\"name\":\"s\","
      "\"axes\":[{\"name\":\"a\",\"values\":[\"x\"]}],\"cells\":[" +
      full_cell("x") + "]}]}";
  EXPECT_FALSE(validate_result_json(bad_scale, &err));
  EXPECT_NE(err.find("scale"), std::string::npos);
}

}  // namespace
}  // namespace eo
