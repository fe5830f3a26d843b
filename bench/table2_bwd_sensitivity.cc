// Table 2: BWD true-positive rate (sensitivity). Two threads pinned to one
// core: thread #1 continuously holds each spinlock, thread #2 repeatedly
// tries to acquire it. Every monitoring window whose busy time is pure
// spinning is a "try"; sensitivity = detected / tries. Expected ~99.8%+ for
// all ten algorithms (the residual misses are windows where the spun-on
// cacheline was invalidated and recounted as an L1 miss).
#include "bench_util.h"
#include "workloads/microbench.h"

using namespace eo;

int main(int argc, char** argv) {
  const bench::CliSpec spec{
      .id = "table2_bwd_sensitivity",
      .summary = "BWD sensitivity on 10 spinlocks",
      .default_scale = 0.5};
  const bench::Cli cli = bench::Cli::parse(argc, argv, spec);
  const auto hold = static_cast<SimDuration>(4_s * cli.scale);

  const auto& kinds = locks::all_spinlock_kinds();
  std::vector<std::string> kind_labels;
  for (const auto k : kinds) kind_labels.emplace_back(locks::to_string(k));

  metrics::RunConfig base = cli.run_config();
  base.cpus = 1;
  base.sockets = 1;
  base.features = core::Features::optimized();
  base.deadline = hold + 5_s;

  exp::Sweep sweep("bwd_sensitivity");
  sweep.base(base).axis("spinlock", kind_labels);

  bench::Harness h(cli, spec);
  if (h.listed({&sweep})) return 0;

  bench::print_header("Table 2", "BWD sensitivity on 10 spinlocks");
  const exp::Outcomes& out = h.run(
      sweep, [&](const exp::Cell& cell, const metrics::RunConfig& cfg) {
        exp::CellRun r(metrics::run_experiment(cfg, [&](kern::Kernel& k) {
          auto lock = std::shared_ptr<locks::SpinLock>(
              locks::make_spinlock(kinds[cell.at(0)], k, 2));
          workloads::spawn_tp_pair(k, lock, hold);
        }));
        const auto tries = r.run.bwd.tp + r.run.bwd.fn;
        r.set("tries", static_cast<double>(tries))
            .set("tps", static_cast<double>(r.run.bwd.tp))
            .set("sensitivity_pct",
                 tries ? 100.0 * static_cast<double>(r.run.bwd.tp) /
                             static_cast<double>(tries)
                       : 0.0);
        return r;
      });

  metrics::TablePrinter t({"Spinlock", "# of Tries", "# of TPs",
                           "Sensitivity(%)"});
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const exp::CellOutcome& o = out.at({i});
    if (!o.ran()) continue;
    t.add_row({kind_labels[i],
               std::to_string(static_cast<std::uint64_t>(o.value("tries"))),
               std::to_string(static_cast<std::uint64_t>(o.value("tps"))),
               metrics::TablePrinter::num(o.value("sensitivity_pct"))});
  }
  t.print();

  return h.finish();
}
