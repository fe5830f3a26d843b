// Ablation: VB design choices (DESIGN.md Section 5).
//  (1) auto-disable threshold on/off: with the threshold off, VB parks even
//      single mutex waiters; the paper's rule avoids VB when all waiters can
//      get dedicated cores on wakeup.
//  (2) flag-check quantum sweep: the quantum trades responsiveness when all
//      threads on a core are parked against switch churn.
#include "bench_util.h"
#include "workloads/microbench.h"

using namespace eo;

namespace {

const std::vector<workloads::SyncPrimitive> kPrims = {
    workloads::SyncPrimitive::kMutex, workloads::SyncPrimitive::kBarrier,
    workloads::SyncPrimitive::kCond};

const std::vector<SimDuration> kQuanta = {250_ns, 500_ns, 1_us,
                                          2_us,   5_us,   20_us};

}  // namespace

int main(int argc, char** argv) {
  const bench::CliSpec spec{
      .id = "ablation_vb",
      .summary = "VB auto-disable and flag-check quantum ablations",
      .default_scale = 0.25};
  const bench::Cli cli = bench::Cli::parse(argc, argv, spec);
  const int iters = std::max(200, static_cast<int>(6000 * cli.scale));

  metrics::RunConfig base = cli.run_config();
  base.cpus = 8;
  base.sockets = 1;
  base.deadline = 600_s;

  std::vector<std::string> prim_labels;
  for (const auto p : kPrims) prim_labels.emplace_back(workloads::to_string(p));

  exp::Sweep sweep_a("auto_disable");
  sweep_a.base(base)
      .axis("primitive", prim_labels)
      .axis("policy", {"vanilla", "vb-auto", "vb-always"},
            [](metrics::RunConfig& rc, std::size_t i) {
              if (i == 0) {
                rc.features = core::Features::vanilla();
              } else {
                rc.features = core::Features::optimized();
                rc.features.vb_auto_disable = i == 1;
              }
            });

  std::vector<std::string> quantum_labels;
  for (const auto q : kQuanta) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fus",
                  static_cast<double>(q) / 1000.0);
    quantum_labels.emplace_back(buf);
  }
  exp::Sweep sweep_q("check_quantum");
  {
    metrics::RunConfig qbase = base;
    qbase.features = core::Features::optimized();
    sweep_q.base(qbase).axis("quantum", quantum_labels,
                             [](metrics::RunConfig& rc, std::size_t i) {
                               rc.costs.vb_check_quantum = kQuanta[i];
                             });
  }

  bench::Harness h(cli, spec);
  if (h.listed({&sweep_a, &sweep_q})) return 0;

  bench::print_header("Ablation (VB)", "auto-disable threshold");
  const exp::Outcomes& out_a = h.run(
      sweep_a, [&](const exp::Cell& cell, const metrics::RunConfig& cfg) {
        return metrics::run_experiment(cfg, [&](kern::Kernel& k) {
          workloads::spawn_sync_micro(k, 32, kPrims[cell.at(0)], iters);
        });
      });
  {
    metrics::TablePrinter t({"primitive", "vanilla(ms)", "VB+auto(ms)",
                             "VB-always(ms)"});
    for (std::size_t pi = 0; pi < kPrims.size(); ++pi) {
      std::vector<std::string> row = {prim_labels[pi]};
      for (std::size_t ci = 0; ci < 3; ++ci) {
        const exp::CellOutcome& o = out_a.at({pi, ci});
        row.push_back(o.ran() ? metrics::TablePrinter::num(o.ms(), 1) : "-");
      }
      t.add_row(row);
    }
    t.print();
  }

  bench::print_header("Ablation (VB)",
                      "flag-check quantum sweep (barrier, 32T/8c)");
  const exp::Outcomes& out_q = h.run(
      sweep_q, [&](const exp::Cell&, const metrics::RunConfig& cfg) {
        return metrics::run_experiment(cfg, [&](kern::Kernel& k) {
          workloads::spawn_sync_micro(k, 32, workloads::SyncPrimitive::kBarrier,
                                      iters);
        });
      });
  {
    metrics::TablePrinter t({"quantum(us)", "exec(ms)"});
    for (std::size_t qi = 0; qi < kQuanta.size(); ++qi) {
      const exp::CellOutcome& o = out_q.at({qi});
      t.add_row({metrics::TablePrinter::num(
                     static_cast<double>(kQuanta[qi]) / 1000.0, 2),
                 o.ran() ? metrics::TablePrinter::num(o.ms(), 1) : "-"});
    }
    t.print();
  }

  return h.finish();
}
