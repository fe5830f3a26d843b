// Figure 10: the effect of virtual blocking on pthreads primitives.
//  (a) varying thread counts on a single core: VB speedup over vanilla is
//      ~1x for mutex (one waiter wakes at a time), ~1.5x for barrier and
//      ~2.3x for condition variables (group wakeups).
//  (b) 32 threads on 1..32 cores: the group-synchronization speedups grow
//      (to ~3x barrier, ~5x cond).
#include "bench_util.h"
#include "workloads/microbench.h"

using namespace eo;

namespace {

const std::vector<workloads::SyncPrimitive> kPrims = {
    workloads::SyncPrimitive::kMutex, workloads::SyncPrimitive::kCond,
    workloads::SyncPrimitive::kBarrier};
const std::vector<std::string> kPrimLabels = {"pthread_mutex", "pthread_cond",
                                              "pthread_barrier"};

exp::Sweep make_sweep(const bench::Cli& cli, const std::string& name,
                      const std::string& vary_axis,
                      const std::vector<int>& counts, bool vary_cores) {
  std::vector<std::string> count_labels;
  for (const int c : counts) count_labels.push_back(std::to_string(c));
  exp::Sweep sweep(name);
  metrics::RunConfig base = cli.run_config();
  base.cpus = 1;
  base.sockets = 1;
  base.deadline = 600_s;
  sweep.base(base)
      .axis("primitive", kPrimLabels)
      .axis(vary_axis, count_labels,
            [&counts, vary_cores](metrics::RunConfig& rc, std::size_t i) {
              if (vary_cores) {
                rc.cpus = counts[i];
                rc.sockets = counts[i] > 8 ? 2 : 1;
              }
            })
      .axis("kernel", {"vanilla", "optimized"},
            [](metrics::RunConfig& rc, std::size_t i) {
              rc.features = i ? core::Features::optimized()
                              : core::Features::vanilla();
            });
  return sweep;
}

// Attaches vanilla/optimized speedups to the optimized cells and prints the
// figure table (rows = the varying axis, columns = primitives).
void finish_sweep(const std::string& row_header,
                  const std::vector<int>& counts, exp::Outcomes& out) {
  for (std::size_t pi = 0; pi < kPrims.size(); ++pi) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const exp::CellOutcome& van = out.at({pi, i, 0});
      exp::CellOutcome& opt = out.at({pi, i, 1});
      if (!van.ran() || !opt.ran()) continue;
      opt.set("speedup", van.ms() / opt.ms());
    }
  }
  metrics::TablePrinter t(
      {row_header, "pthread_mutex", "pthread_cond", "pthread_barrier"});
  for (std::size_t i = 0; i < counts.size(); ++i) {
    std::vector<std::string> row = {std::to_string(counts[i])};
    for (std::size_t pi = 0; pi < kPrims.size(); ++pi) {
      const exp::CellOutcome& o = out.at({pi, i, 1});
      row.push_back(o.ran() ? metrics::TablePrinter::num(o.value("speedup"))
                            : "-");
    }
    t.add_row(row);
  }
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliSpec spec{
      .id = "fig10_vb_micro",
      .summary = "VB speedup on pthreads primitives (micro)",
      .default_scale = 0.25};
  const bench::Cli cli = bench::Cli::parse(argc, argv, spec);
  const int iters = std::max(200, static_cast<int>(10000 * cli.scale));

  const std::vector<int> threads = {1, 2, 4, 8, 16, 32};
  const std::vector<int> cores = {1, 2, 4, 8, 16, 32};
  exp::Sweep sweep_a = make_sweep(cli, "threads_on_one_core", "threads", threads,
                                  /*vary_cores=*/false);
  exp::Sweep sweep_b = make_sweep(cli, "cores_at_32T", "cores", cores,
                                  /*vary_cores=*/true);

  bench::Harness h(cli, spec);
  if (h.listed({&sweep_a, &sweep_b})) return 0;

  bench::print_header("Figure 10(a)",
                      "VB speedup, varying threads on one core");
  exp::Outcomes& out_a = h.run(
      sweep_a, [&](const exp::Cell& cell, const metrics::RunConfig& cfg) {
        return metrics::run_experiment(cfg, [&](kern::Kernel& k) {
          workloads::spawn_sync_micro(k, threads[cell.at(1)],
                                      kPrims[cell.at(0)], iters);
        });
      });
  finish_sweep("threads", threads, out_a);

  bench::print_header("Figure 10(b)",
                      "VB speedup, 32 threads on varying cores");
  exp::Outcomes& out_b = h.run(
      sweep_b, [&](const exp::Cell& cell, const metrics::RunConfig& cfg) {
        return metrics::run_experiment(cfg, [&](kern::Kernel& k) {
          workloads::spawn_sync_micro(k, 32, kPrims[cell.at(0)], iters);
        });
      });
  finish_sweep("cores", cores, out_b);

  return h.finish();
}
