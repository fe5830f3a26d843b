// Figure 1: performance of the 32 PARSEC/SPLASH-2/NPB benchmark models with
// (32T) and without (8T) thread oversubscription on 8 cores, vanilla kernel.
// Values are 32T execution time normalized to 8T; the paper's three groups
// should appear: ~1.0 (unaffected), <1.0 (benefit), and >1 up to ~25x
// (suffering; dedup/cholesky/lu are the annotated outliers).
#include "bench_util.h"
#include "workloads/suite.h"

using namespace eo;

int main(int argc, char** argv) {
  const bench::CliSpec spec{
      .id = "fig01_oversubscription",
      .summary = "normalized execution time, 32T vs 8T on 8 cores",
      .default_scale = 0.2};
  const bench::Cli cli = bench::Cli::parse(argc, argv, spec);

  const auto& all = workloads::suite();
  std::vector<std::string> names;
  for (const auto& s : all) names.push_back(s.name);

  metrics::RunConfig base = cli.run_config();
  base.cpus = 8;
  base.sockets = 2;
  base.features = core::Features::vanilla();
  base.deadline = 600_s;

  exp::Sweep sweep("oversubscription");
  sweep.base(base)
      .axis("benchmark", names)
      .axis("threads", {"8T", "32T"});

  bench::Harness h(cli, spec);
  if (h.listed({&sweep})) return 0;

  bench::print_header("Figure 1",
                      "normalized execution time, 32T vs 8T on 8 cores");
  const exp::Outcomes& out = h.run(
      sweep, [&](const exp::Cell& cell, const metrics::RunConfig& cfg) {
        return bench::run_suite_cell(all[cell.at(0)], cell.at(1) == 0 ? 8 : 32,
                                     cfg, cli);
      });

  metrics::TablePrinter table(
      {"benchmark", "suite", "sync", "8T(ms)", "32T(ms)", "normalized"});
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& r8 = out.at({i, 0});
    const auto& r32 = out.at({i, 1});
    if (!r8.ran() || !r32.ran()) continue;
    table.add_row({all[i].name, all[i].origin,
                   workloads::to_string(all[i].sync),
                   metrics::TablePrinter::num(r8.ms(), 1),
                   metrics::TablePrinter::num(r32.ms(), 1),
                   metrics::TablePrinter::num(r32.ms() / r8.ms())});
  }
  table.print();

  return h.finish();
}
