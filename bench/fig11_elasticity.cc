// Figure 11: exploiting CPU elasticity. Five benchmarks with distinct
// characteristics start on 8 cores; the core count is changed at runtime to
// 2..32. Configurations: #core-matched threads (vanilla), 8T (vanilla),
// 32T (vanilla), 32T pinned, 32T optimized.
// Expected: with VB, 32 threads is never worse than 8 threads and scales to
// 32 cores; pinning cannot adapt (paper: programs crashed when the core
// count decreased — reported here as "crash"), and leaves added cores unused.
#include "bench_util.h"
#include "runtime/sim_thread.h"
#include "workloads/suite.h"

using namespace eo;

namespace {

struct Cfg {
  const char* label;
  int threads;  // 0 = match core count
  bool pinned;
  bool optimized;
};

const std::vector<Cfg> kCfgs = {
    {"#core-T(vanilla)", 0, false, false},
    {"8T(vanilla)", 8, false, false},
    {"32T(vanilla)", 32, false, false},
    {"32T(pinned)", 32, true, false},
    {"32T(optimized)", 32, false, true},
};

// Drives the kernel manually: boot on 8 cores, resize at runtime.
exp::CellRun run_one(const workloads::BenchmarkSpec& spec, int threads,
                     int cores, bool pinned, const metrics::RunConfig& cfg,
                     std::uint64_t seed, double scale) {
  auto kc = metrics::make_kernel_config(cfg);
  kern::Kernel k(kc);
  k.set_online_cores(8);  // startup allocation
  workloads::spawn_benchmark(k, spec, threads, seed, scale);
  if (pinned) {
    // Pin threads round-robin over the startup cores.
    int i = 0;
    for (const auto& t : k.tasks()) {
      k.pin_task(t.get(), i++ % 8);
    }
  }
  // The provider resizes the container shortly after startup.
  k.run_until(5_ms);
  if (cores != 8) k.set_online_cores(cores);
  const bool done = k.run_to_exit(cfg.deadline);
  exp::CellRun res(metrics::read_out(k, cfg, done));
  // Pinning to a core that is taken away kills the run in practice.
  res.set("crashed", pinned && k.pinned_violation() ? 1.0 : 0.0);
  if (pinned && k.pinned_violation()) {
    // A crashed run is terminal — the deadline retry loop must not rerun it.
    res.run.completed = true;
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliSpec spec{
      .id = "fig11_elasticity",
      .summary = "runtime core-count adaptation (exec time, ms)",
      .default_scale = 0.15};
  const bench::Cli cli = bench::Cli::parse(argc, argv, spec);

  const std::vector<std::string> names = {"ep", "facesim", "streamcluster",
                                          "ocean", "cg"};
  const std::vector<int> cores = {2, 4, 8, 16, 32};
  std::vector<std::string> cfg_labels;
  for (const auto& c : kCfgs) cfg_labels.emplace_back(c.label);
  std::vector<std::string> core_labels;
  for (const int c : cores) core_labels.push_back(std::to_string(c) + "c");

  metrics::RunConfig base = cli.run_config();
  base.cpus = 32;  // machine capacity; the container is resized at runtime
  base.sockets = 2;
  base.deadline = 600_s;

  exp::Sweep sweep("elasticity");
  sweep.base(base)
      .axis("benchmark", names)
      .axis("config", cfg_labels,
            [](metrics::RunConfig& rc, std::size_t ci) {
              rc.features = kCfgs[ci].optimized ? core::Features::optimized()
                                                : core::Features::vanilla();
            })
      .axis("cores", core_labels);

  bench::Harness h(cli, spec);
  if (h.listed({&sweep})) return 0;

  bench::print_header("Figure 11",
                      "runtime core-count adaptation (exec time, ms)");
  const exp::Outcomes& out = h.run(
      sweep, [&](const exp::Cell& cell, const metrics::RunConfig& cfg) {
        const auto& bspec = workloads::find_benchmark(names[cell.at(0)]);
        const Cfg& c = kCfgs[cell.at(1)];
        const int n_cores = cores[cell.at(2)];
        const int threads = c.threads == 0 ? n_cores : c.threads;
        metrics::RunConfig rc = cfg;
        rc.ref_footprint = bspec.ref_footprint();
        return run_one(bspec, threads, n_cores, c.pinned, rc, cli.seed,
                       cli.scale);
      });

  for (std::size_t bi = 0; bi < names.size(); ++bi) {
    std::printf("\n--- %s ---\n", names[bi].c_str());
    std::vector<std::string> headers = {"config"};
    for (int c : cores) headers.push_back(std::to_string(c) + " cores");
    metrics::TablePrinter t(headers);
    for (std::size_t ci = 0; ci < kCfgs.size(); ++ci) {
      std::vector<std::string> row = {kCfgs[ci].label};
      for (std::size_t ki = 0; ki < cores.size(); ++ki) {
        const exp::CellOutcome& o = out.at({bi, ci, ki});
        if (!o.ran()) {
          row.push_back("-");
        } else if (o.value("crashed") > 0) {
          row.push_back("crash");
        } else {
          row.push_back(metrics::TablePrinter::num(o.ms(), 1));
        }
      }
      t.add_row(row);
    }
    t.print();
  }

  return h.finish();
}
