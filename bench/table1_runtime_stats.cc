// Table 1: runtime statistics under thread oversubscription — CPU
// utilization (of 800%: 8 cores) and in-node / cross-node migration counts,
// for the 13 blocking benchmarks under 8T vanilla, 32T vanilla, and 32T
// optimized. Expected: vanilla 32T loses utilization and racks up orders of
// magnitude more migrations; VB restores utilization and nearly eliminates
// migrations (sometimes below the 8T baseline, since parked threads are
// never balanced).
#include "bench_util.h"
#include "workloads/suite.h"

using namespace eo;

int main(int argc, char** argv) {
  const bench::CliSpec spec{
      .id = "table1_runtime_stats",
      .summary = "CPU utilization and migrations under oversubscription",
      .default_scale = 0.2};
  const bench::Cli cli = bench::Cli::parse(argc, argv, spec);

  const auto names = workloads::fig9_benchmarks();
  struct Cfg {
    int threads;
    bool optimized;
  };
  const std::vector<Cfg> cfgs = {{8, false}, {32, false}, {32, true}};
  const std::vector<std::string> cfg_labels = {"8T", "32T", "Opt"};

  metrics::RunConfig base = cli.run_config();
  base.cpus = 8;
  base.sockets = 2;
  base.deadline = 600_s;

  exp::Sweep sweep("runtime_stats");
  sweep.base(base)
      .axis("benchmark", names)
      .axis("config", cfg_labels,
            [&](metrics::RunConfig& rc, std::size_t ci) {
              rc.features = cfgs[ci].optimized ? core::Features::optimized()
                                               : core::Features::vanilla();
            });

  bench::Harness h(cli, spec);
  if (h.listed({&sweep})) return 0;

  bench::print_header("Table 1", "CPU utilization and migrations");
  const exp::Outcomes& out = h.run(
      sweep, [&](const exp::Cell& cell, const metrics::RunConfig& cfg) {
        return bench::run_suite_cell(
            workloads::find_benchmark(names[cell.at(0)]),
            cfgs[cell.at(1)].threads, cfg, cli);
      });

  metrics::TablePrinter t({"App", "util 8T", "util 32T", "util Opt",
                           "in-migr 8T", "in-migr 32T", "in-migr Opt",
                           "x-migr 8T", "x-migr 32T", "x-migr Opt"});
  for (std::size_t bi = 0; bi < names.size(); ++bi) {
    if (!out.at({bi, 0}).ran() || !out.at({bi, 1}).ran() ||
        !out.at({bi, 2}).ran()) {
      continue;
    }
    std::vector<std::string> row = {names[bi]};
    for (std::size_t ci = 0; ci < cfgs.size(); ++ci) {
      row.push_back(metrics::TablePrinter::num(
          out.at({bi, ci}).run.utilization_percent, 0));
    }
    for (std::size_t ci = 0; ci < cfgs.size(); ++ci) {
      row.push_back(std::to_string(out.at({bi, ci}).run.stats.migrations_in_node));
    }
    for (std::size_t ci = 0; ci < cfgs.size(); ++ci) {
      row.push_back(
          std::to_string(out.at({bi, ci}).run.stats.migrations_cross_node));
    }
    t.add_row(row);
  }
  t.print();

  return h.finish();
}
