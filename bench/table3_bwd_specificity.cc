// Table 3: BWD false-positive rate (specificity). Eight blocking NPB
// benchmark models with no user/kernel spinning run with BWD enabled; any
// detection is a false positive (the benchmarks' rare tight register loops
// are the only trigger). Also reports the FP-induced overhead (exec time
// with BWD vs without) — expected under ~1% — and the timer overhead.
#include "bench_util.h"
#include "workloads/suite.h"

using namespace eo;

int main(int argc, char** argv) {
  const bench::CliSpec spec{
      .id = "table3_bwd_specificity",
      .summary = "BWD specificity on blocking NPB benchmarks",
      .default_scale = 0.3};
  const bench::Cli cli = bench::Cli::parse(argc, argv, spec);

  const std::vector<std::string> names = {"is", "ep", "cg", "mg",
                                          "ft", "sp", "bt", "ua"};

  metrics::RunConfig base = cli.run_config();
  base.cpus = 8;
  base.sockets = 2;
  base.deadline = 600_s;

  exp::Sweep sweep("bwd_specificity");
  sweep.base(base)
      .axis("benchmark", names)
      .axis("bwd", {"on", "off"},
            [](metrics::RunConfig& rc, std::size_t i) {
              core::Features f;  // vanilla blocking, no VB — isolate BWD
              f.bwd = i == 0;
              rc.features = f;
            });

  bench::Harness h(cli, spec);
  if (h.listed({&sweep})) return 0;

  bench::print_header("Table 3", "BWD specificity on blocking NPB benchmarks");
  exp::Outcomes& out = h.run(
      sweep, [&](const exp::Cell& cell, const metrics::RunConfig& cfg) {
        return bench::run_suite_cell(
            workloads::find_benchmark(names[cell.at(0)]), 32, cfg, cli);
      });

  metrics::TablePrinter t({"App", "# of Tries", "# of FPs", "Specificity(%)",
                           "FP+timer overhead(%)"});
  for (std::size_t bi = 0; bi < names.size(); ++bi) {
    exp::CellOutcome& on = out.at({bi, 0});
    const exp::CellOutcome& off = out.at({bi, 1});
    if (!on.ran() || !off.ran()) continue;
    const auto negatives = on.run.bwd.windows;  // no true spinning here
    const double spec_pct =
        negatives ? 100.0 * static_cast<double>(negatives - on.run.bwd.fp) /
                        static_cast<double>(negatives)
                  : 0.0;
    const double overhead =
        off.ms() > 0 ? (on.ms() - off.ms()) / off.ms() * 100.0 : 0.0;
    on.set("specificity_pct", spec_pct);
    on.set("overhead_pct", overhead);
    t.add_row({names[bi], std::to_string(negatives),
               std::to_string(on.run.bwd.fp),
               metrics::TablePrinter::num(spec_pct),
               metrics::TablePrinter::num(overhead)});
  }
  t.print();

  return h.finish();
}
