// Figure 1: performance of the 32 PARSEC/SPLASH-2/NPB benchmark models with
// (32T) and without (8T) thread oversubscription on 8 cores, vanilla kernel.
// Values are 32T execution time normalized to 8T; the paper's three groups
// should appear: ~1.0 (unaffected), <1.0 (benefit), and >1 up to ~25x
// (suffering; dedup/cholesky/lu are the annotated outliers).
#include <iostream>

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

  metrics::RunConfig base;
  base.cpus = 8;
  base.sockets = 2;
  base.features = core::Features::vanilla();
  base.deadline = 600_s;
  bench::apply_metrics(cli, &base);
  bench::apply_sched(cli, &base);

  exp::Sweep sweep("oversubscription");
  sweep.base(base)
      .axis("benchmark", names)
      .axis("threads", {"8T", "32T"});

  exp::ExperimentRunner runner(sweep, cli.runner_options());
  if (cli.list) {
    runner.list(std::cout);
    return 0;
  }

  bench::print_header("Figure 1",
                      "normalized execution time, 32T vs 8T on 8 cores");
  const exp::Outcomes out = runner.run(
      [&](const exp::Cell& cell, const metrics::RunConfig& cfg) {
        const auto& bspec = all[cell.at(0)];
        const int threads = cell.at(1) == 0 ? 8 : 32;
        metrics::RunConfig rc = cfg;
        rc.ref_footprint = bspec.ref_footprint();
        return metrics::run_experiment(rc, [&](kern::Kernel& k) {
          workloads::spawn_benchmark(k, bspec, threads, cli.seed, cli.scale);
        });
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

  exp::ResultDoc doc(spec.id, cli.scale, cli.seed);
  doc.add_sweep(sweep, out);
  bool ok = bench::write_results(cli, doc);
  ok = bench::check_sweep_metrics(out, cli) && ok;
  return ok ? 0 : 1;
}
