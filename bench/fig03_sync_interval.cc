// Figure 3: histogram of the interval between synchronizations across the
// PARSEC, SPLASH-2, and NPB benchmark models at their optimal thread counts.
// The paper's finding: most programs synchronize no more often than every
// 1000 µs (CS overhead < 0.15%); the most frequent is facesim at 160 µs
// (overhead still < 1%).
#include <map>

#include "bench_util.h"
#include "workloads/suite.h"

using namespace eo;

int main(int argc, char** argv) {
  const bench::CliSpec spec{
      .id = "fig03_sync_interval",
      .summary = "interval between synchronizations (at optimal threads)",
      .default_scale = 1.0};
  const bench::Cli cli = bench::Cli::parse(argc, argv, spec);

  std::vector<const workloads::BenchmarkSpec*> synced;
  std::vector<std::string> names;
  for (const auto& s : workloads::suite()) {
    if (s.sync == workloads::SyncKind::kNone) continue;
    synced.push_back(&s);
    names.push_back(s.name);
  }

  exp::Sweep sweep("sync_interval");
  sweep.axis("benchmark", names);
  bench::Harness h(cli, spec);
  if (h.listed({&sweep})) return 0;

  bench::print_header("Figure 3",
                      "interval between synchronizations (at optimal threads)");
  // No simulation: the intervals are properties of the workload models. The
  // cells carry the derived values so the JSON document mirrors the figure.
  const exp::Outcomes& out = h.run(
      sweep, [&](const exp::Cell& cell, const metrics::RunConfig&) {
        const auto& bspec = *synced[cell.at(0)];
        const double us = to_us(bspec.interval);
        exp::CellRun r;
        r.run.completed = true;
        // Direct context-switch cost of 1.5 us once per interval.
        r.set("interval_us", us).set("cs_overhead_pct", 1.5 / us * 100.0);
        return r;
      });

  // Bucket by 100 us up to 1 ms, then a single >=1000 us bucket, mirroring
  // the figure's x axis.
  std::map<int, int> hist;
  metrics::TablePrinter detail({"benchmark", "interval(us)", "CS overhead(%)"});
  for (std::size_t i = 0; i < synced.size(); ++i) {
    const exp::CellOutcome& o = out.at({i});
    if (!o.ran()) continue;
    const double us = o.value("interval_us");
    const int bucket = us >= 1000.0 ? 1000 : static_cast<int>(us / 100.0) * 100;
    hist[bucket]++;
    detail.add_row({synced[i]->name, metrics::TablePrinter::num(us, 0),
                    metrics::TablePrinter::num(o.value("cs_overhead_pct"), 3)});
  }
  metrics::TablePrinter t({"interval bucket (us)", "#programs"});
  for (const auto& [b, n] : hist) {
    const std::string label =
        b >= 1000 ? ">=1000" : std::to_string(b) + "-" + std::to_string(b + 99);
    t.add_row({label, std::to_string(n)});
  }
  t.print();
  std::printf("\nPer-benchmark detail:\n");
  detail.print();

  return h.finish();
}
