// Ablation: BWD design choices (DESIGN.md Section 5).
//  (1) Heuristic ablation: which of the three signals (uniform LBR, zero L1D
//      misses, zero TLB misses) are needed? LBR alone has a measurable FP
//      rate on miss-free tight loops... actually tight loops defeat all
//      three; the misses distinguish ordinary code whose recent branches
//      happen to be uniform. We measure sensitivity/specificity per combo.
//  (2) Timer-interval sweep: detection latency vs timer overhead.
#include "bench_util.h"
#include "workloads/microbench.h"
#include "workloads/suite.h"

using namespace eo;

namespace {

struct Combo {
  const char* label;
  bool lbr, l1, tlb;
};

const std::vector<Combo> kCombos = {
    {"lbr-only", true, false, false},
    {"lbr+l1", true, true, false},
    {"lbr+tlb", true, false, true},
    {"all-three", true, true, true},
    {"misses-only", false, true, true},
};

const std::vector<SimDuration> kIntervals = {25_us, 50_us, 100_us,
                                             200_us, 400_us, 800_us};

}  // namespace

int main(int argc, char** argv) {
  const bench::CliSpec spec{
      .id = "ablation_bwd",
      .summary = "BWD heuristic-combination and timer-interval ablations",
      .default_scale = 0.3};
  const bench::Cli cli = bench::Cli::parse(argc, argv, spec);
  const double scale = cli.scale;

  // Sweep 1: heuristic combinations, each measured for sensitivity (spin
  // pair on one core) and specificity (blocking "is" at 32T on 8 cores).
  std::vector<std::string> combo_labels;
  for (const auto& c : kCombos) combo_labels.emplace_back(c.label);
  exp::Sweep sweep_h("heuristics");
  {
    metrics::RunConfig base = cli.run_config();
    base.deadline = 600_s;
    sweep_h.base(base)
        .axis("combo", combo_labels,
              [](metrics::RunConfig& rc, std::size_t ci) {
                core::Features f = core::Features::optimized();
                f.vb_futex = f.vb_epoll = false;
                f.bwd_use_lbr = kCombos[ci].lbr;
                f.bwd_use_l1 = kCombos[ci].l1;
                f.bwd_use_tlb = kCombos[ci].tlb;
                rc.features = f;
              })
        .axis("measure", {"sensitivity", "specificity"});
  }

  // Sweep 2: monitoring-interval sweep, with a no-BWD reference cell for the
  // timer-overhead column.
  std::vector<std::string> interval_labels;
  for (const auto iv : kIntervals) {
    interval_labels.push_back(std::to_string(iv / 1000) + "us");
  }
  exp::Sweep sweep_b("interval_baseline");
  {
    metrics::RunConfig base = cli.run_config();
    base.cpus = 8;
    base.sockets = 2;
    base.deadline = 600_s;
    sweep_b.base(base).axis("reference", {"ft-8T-nobwd"});
  }
  exp::Sweep sweep_i("interval");
  {
    metrics::RunConfig base = cli.run_config();
    base.cpus = 8;
    base.sockets = 2;
    base.deadline = 2000_s;
    sweep_i.base(base)
        .axis("interval", interval_labels,
              [](metrics::RunConfig& rc, std::size_t ii) {
                core::Features f;
                f.bwd = true;
                f.bwd_interval = kIntervals[ii];
                rc.features = f;
              })
        .axis("measure", {"lock", "overhead"});
  }

  bench::Harness h(cli, spec);
  if (h.listed({&sweep_h, &sweep_b, &sweep_i})) return 0;

  bench::print_header("Ablation (BWD)", "heuristic combinations");
  const exp::Outcomes& out_h = h.run(
      sweep_h, [&](const exp::Cell& cell, const metrics::RunConfig& cfg) {
        const bool sens_run = cell.at(1) == 0;
        metrics::RunConfig rc = cfg;
        if (sens_run) {
          rc.cpus = 1;
          rc.sockets = 1;
          exp::CellRun r(metrics::run_experiment(rc, [&](kern::Kernel& k) {
            auto lock = std::shared_ptr<locks::SpinLock>(locks::make_spinlock(
                locks::SpinLockKind::kTicket, k, 2));
            workloads::spawn_tp_pair(
                k, lock, static_cast<SimDuration>(1_s * scale));
          }));
          r.set("sensitivity_pct", r.run.bwd.sensitivity() * 100.0);
          return r;
        }
        rc.cpus = 8;
        rc.sockets = 2;
        exp::CellRun r(
            bench::run_suite_cell(workloads::find_benchmark("is"), 32, rc, cli));
        r.set("specificity_pct", r.run.bwd.specificity() * 100.0);
        return r;
      });
  {
    metrics::TablePrinter t(
        {"heuristics", "sensitivity(%)", "specificity(%)"});
    for (std::size_t ci = 0; ci < kCombos.size(); ++ci) {
      const exp::CellOutcome& sens = out_h.at({ci, 0});
      const exp::CellOutcome& spc = out_h.at({ci, 1});
      t.add_row({kCombos[ci].label,
                 sens.ran()
                     ? metrics::TablePrinter::num(sens.value("sensitivity_pct"))
                     : "-",
                 spc.ran()
                     ? metrics::TablePrinter::num(spc.value("specificity_pct"))
                     : "-"});
    }
    t.print();
  }

  bench::print_header("Ablation (BWD)", "monitoring interval sweep");
  const auto run_ft = [&](const metrics::RunConfig& cfg) {
    return bench::run_suite_cell(workloads::find_benchmark("ft"), 8, cfg, cli);
  };
  const exp::Outcomes& out_b = h.run(
      sweep_b, [&](const exp::Cell&, const metrics::RunConfig& cfg) {
        return run_ft(cfg);
      });
  const bool have_baseline = out_b.at({0}).ran();
  const double baseline_ms = have_baseline ? out_b.at({0}).ms() : 0.0;

  exp::Outcomes& out_i = h.run(
      sweep_i, [&](const exp::Cell& cell, const metrics::RunConfig& cfg) {
        const bool lock_run = cell.at(1) == 0;
        if (lock_run) {
          return exp::CellRun(
              metrics::run_experiment(cfg, [&](kern::Kernel& k) {
                auto lock = std::shared_ptr<locks::SpinLock>(
                    locks::make_spinlock(locks::SpinLockKind::kTicket, k, 32));
                workloads::spawn_lock_contention(
                    k, lock, 32, std::max(50, static_cast<int>(800 * scale)),
                    5_us, 15_us);
              }));
        }
        return exp::CellRun(run_ft(cfg));
      });
  // Timer overhead relative to the no-BWD reference.
  for (std::size_t ii = 0; ii < kIntervals.size() && have_baseline; ++ii) {
    exp::CellOutcome& o = out_i.at({ii, 1});
    if (!o.ran() || baseline_ms <= 0) continue;
    o.set("overhead_pct", (o.ms() - baseline_ms) / baseline_ms * 100.0);
  }
  {
    metrics::TablePrinter t({"interval(us)", "ticket-lock 32T (ms)",
                             "timer overhead on ft 8T (%)"});
    for (std::size_t ii = 0; ii < kIntervals.size(); ++ii) {
      const exp::CellOutcome& lock = out_i.at({ii, 0});
      const exp::CellOutcome& ovh = out_i.at({ii, 1});
      t.add_row({std::to_string(kIntervals[ii] / 1000),
                 lock.ran() ? metrics::TablePrinter::num(lock.ms(), 1) : "-",
                 ovh.ran() && have_baseline
                     ? metrics::TablePrinter::num(ovh.value("overhead_pct"))
                     : "-"});
    }
    t.print();
  }

  return h.finish();
}
