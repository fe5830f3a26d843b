// Figure 9: virtual blocking on the 13 blocking-synchronization benchmarks
// that suffer under oversubscription, on 8 cores and on 8 hyper-threads of 4
// cores. Expected: 32T(vanilla) is 5.5%-56.7% slower than 8T(vanilla);
// 32T(optimized) is close to the 8T baseline, and for freqmine/ocean/cg/mg
// even beats it; fluidanimate keeps a residual slowdown (its lock count
// scales with the thread count).
#include "bench_util.h"
#include "workloads/suite.h"

using namespace eo;

namespace {

struct Config {
  int threads;
  bool optimized;
  bool smt;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::CliSpec spec{
      .id = "fig09_vb_blocking",
      .summary = "VB on blocking benchmarks (normalized to 8T vanilla)",
      .default_scale = 0.2,
      .supports_trace = true};
  const bench::Cli cli = bench::Cli::parse(argc, argv, spec);

  const auto names = workloads::fig9_benchmarks();
  const std::vector<Config> configs = {
      {8, false, false},  {32, false, false}, {32, true, false},
      {8, false, true},   {32, false, true},  {32, true, true},
  };
  const std::vector<std::string> config_labels = {
      "8T(van-8c)", "32T(van-8c)", "32T(opt-8c)",
      "8T(van-8ht)", "32T(van-8ht)", "32T(opt-8ht)"};

  metrics::RunConfig base = cli.run_config();
  base.cpus = 8;
  base.sockets = 2;
  base.deadline = 600_s;

  exp::Sweep sweep("vb_blocking");
  sweep.base(base)
      .axis("benchmark", names)
      .axis("config", config_labels,
            [&](metrics::RunConfig& rc, std::size_t ci) {
              rc.smt = configs[ci].smt;
              rc.features = configs[ci].optimized
                                ? core::Features::optimized()
                                : core::Features::vanilla();
            });

  bench::Harness h(cli, spec);
  if (h.listed({&sweep})) return 0;

  // Representative traced configuration: "cg" at 32 threads (optimized) on 8
  // cores. cg mixes futex blocking (so VB parks and flag-check quanta
  // appear) with tight spin loops (so BWD samples and deschedules appear),
  // making its trace exercise every subsystem the figure is about.
  metrics::RunConfig trace_cfg;
  trace_cfg.cpus = 8;
  trace_cfg.sockets = 2;
  trace_cfg.features = core::Features::optimized();
  trace_cfg.deadline = 600_s;
  if (const auto code = h.traced(
          trace_cfg, "cg 32T(opt-8c)",
          [&](const metrics::RunConfig& rc) {
            return bench::run_suite_cell(workloads::find_benchmark("cg"), 32,
                                         rc, cli);
          },
          {trace::EventKind::kSwitchIn, trace::EventKind::kFutexWait,
           trace::EventKind::kFutexWake, trace::EventKind::kVbSkipQuantum,
           trace::EventKind::kBwdDesched})) {
    return *code;
  }

  bench::print_header("Figure 9",
                      "VB on blocking benchmarks (normalized to 8T vanilla)");
  const exp::Outcomes& out = h.run(
      sweep, [&](const exp::Cell& cell, const metrics::RunConfig& cfg) {
        return bench::run_suite_cell(
            workloads::find_benchmark(names[cell.at(0)]),
            configs[cell.at(1)].threads, cfg, cli);
      });

  metrics::TablePrinter table({"benchmark", "8T(van-8c)", "32T(van-8c)",
                               "32T(opt-8c)", "8T(van-8ht)", "32T(van-8ht)",
                               "32T(opt-8ht)"});
  for (std::size_t bi = 0; bi < names.size(); ++bi) {
    if (!out.at({bi, 0}).ran()) continue;
    const double base_c = out.at({bi, 0}).ms();
    std::vector<std::string> row = {names[bi]};
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      const auto& o = out.at({bi, ci});
      row.push_back(o.ran() ? metrics::TablePrinter::num(o.ms() / base_c)
                            : "-");
    }
    table.add_row(row);
  }
  table.print();
  std::printf("(columns normalized to 8T vanilla on 8 full cores)\n");

  return h.finish();
}
