// Figure 14: BWD on user-customized spinning (NPB lu and SPLASH-2 volrend),
// with 8/16/32 threads on 8 cores, in containers and VMs. Expected: vanilla
// collapses as the oversubscription ratio grows; BWD contains the slowdown
// (worsening somewhat with the ratio — its detection interval is fixed);
// PLE is inapplicable in containers (∅) and ineffective in VMs because these
// spin loops contain no PAUSE/NOP.
#include "bench_util.h"
#include "workloads/suite.h"

using namespace eo;

namespace {

struct Cfg {
  const char* label;
  bool na;  // PLE in a container: not applicable
  core::Features f;
};

const std::vector<Cfg> kCfgs = {
    {"container-vanilla", false, core::Features::vanilla()},
    {"container-PLE", true, core::Features::vanilla()},  // ∅: N/A
    {"container-optimized", false, core::Features::optimized()},
    {"vm-vanilla", false, core::Features::vm_vanilla()},
    {"vm-PLE", false, core::Features::vm_ple()},
    {"vm-optimized", false, core::Features::vm_optimized()},
};

}  // namespace

int main(int argc, char** argv) {
  const bench::CliSpec spec{
      .id = "fig14_user_spinning",
      .summary = "BWD on user-customized spinning (exec ms)",
      .default_scale = 0.15};
  const bench::Cli cli = bench::Cli::parse(argc, argv, spec);

  const std::vector<std::string> names = {"lu", "volrend"};
  const std::vector<int> threads = {8, 16, 32};
  std::vector<std::string> cfg_labels;
  for (const auto& c : kCfgs) cfg_labels.emplace_back(c.label);
  std::vector<std::string> thread_labels;
  for (const int t : threads) thread_labels.push_back(std::to_string(t) + "t");

  metrics::RunConfig base = cli.run_config();
  base.cpus = 8;
  base.sockets = 2;
  base.deadline = 2000_s;

  exp::Sweep sweep("user_spinning");
  sweep.base(base)
      .axis("benchmark", names)
      .axis("config", cfg_labels,
            [](metrics::RunConfig& rc, std::size_t ci) {
              rc.features = kCfgs[ci].f;
            })
      .axis("threads", thread_labels);

  bench::Harness h(cli, spec);
  if (h.listed({&sweep})) return 0;

  bench::print_header("Figure 14", "user-customized spinning (exec ms)");
  const exp::Outcomes& out = h.run(
      sweep, [&](const exp::Cell& cell, const metrics::RunConfig& cfg) {
        if (kCfgs[cell.at(1)].na) return exp::CellRun::na();
        return exp::CellRun(bench::run_suite_cell(
            workloads::find_benchmark(names[cell.at(0)]), threads[cell.at(2)],
            cfg, cli));
      });

  for (std::size_t bi = 0; bi < names.size(); ++bi) {
    std::printf("\n--- %s ---\n", names[bi].c_str());
    metrics::TablePrinter table({"config", "8t", "16t", "32t"});
    for (std::size_t ci = 0; ci < kCfgs.size(); ++ci) {
      std::vector<std::string> row = {kCfgs[ci].label};
      for (std::size_t ti = 0; ti < threads.size(); ++ti) {
        const exp::CellOutcome& o = out.at({bi, ci, ti});
        if (o.not_applicable) {
          row.push_back("n/a");
        } else {
          row.push_back(o.ran() ? metrics::TablePrinter::num(o.ms(), 1) : "-");
        }
      }
      table.add_row(row);
    }
    table.print();
  }

  return h.finish();
}
