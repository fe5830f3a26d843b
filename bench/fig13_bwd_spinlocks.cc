// Figure 13: applicability of BWD to the ten spinlock algorithms, in
// containers (a) and KVM VMs (b).
//
// The paper's microbenchmark is a multi-stage pipeline: each stage is a
// thread that busy-waits on the completion of the previous stage before
// starting its own work, with the waiting implemented by each of the ten
// spinlock algorithms. At pipeline steady state every stage has useful work
// queued, so the experiment measures how much CPU the waiting algorithm
// burns — which is what BWD eliminates. In the simulation all ten
// algorithms' waits execute as spin segments (differing in their PAUSE use,
// which is what PLE keys on), so the rows come out similar — exactly the
// paper's finding: "BWD can accurately identify busy-waiting in all spin
// algorithms", while PLE helps none of them (it detects only PAUSE bodies
// and acts at vCPU granularity).
//
// Expected shape: 32T vanilla is several-x slower than 8T vanilla; 32T
// optimized (BWD) is close to 8T; PLE tracks vanilla.
#include "bench_util.h"
#include "locks/spinlocks.h"
#include "workloads/pipeline.h"

using namespace eo;

namespace {

bool lock_uses_pause(locks::SpinLockKind k) {
  // glibc's pthread spinlock embeds PAUSE/NOP (paper Figure 6); TTAS
  // implementations typically do as well. The queue locks spin on plain
  // loads.
  return k == locks::SpinLockKind::kPthreadSpin ||
         k == locks::SpinLockKind::kTtas;
}

// Config axis: the union of the container and VM column sets. PLE exists
// only under virtualization, so the container/PLE cells are not applicable.
struct Cfg {
  const char* label;
  int threads;
};
const std::vector<Cfg> kCfgs = {{"8T(vanilla)", 8},
                                {"32T(vanilla)", 32},
                                {"32T(PLE)", 32},
                                {"32T(optimized)", 32}};

core::Features features_for(bool vm, std::size_t ci) {
  if (!vm) {
    return ci == 3 ? core::Features::optimized() : core::Features::vanilla();
  }
  switch (ci) {
    case 2:
      return core::Features::vm_ple();
    case 3:
      return core::Features::vm_optimized();
    default:
      return core::Features::vm_vanilla();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliSpec spec{
      .id = "fig13_bwd_spinlocks",
      .summary = "BWD on the ten spinlock algorithms (container and VM)",
      .default_scale = 0.2,
      .supports_trace = true};
  const bench::Cli cli = bench::Cli::parse(argc, argv, spec);
  const int items = std::max(40, static_cast<int>(600 * cli.scale));
  const SimDuration total_stage_work = 2_ms;  // per item, across all stages
  // The spin pipeline at `threads` stages (strong scaling: the per-item work
  // is split across them), waiting with `kind`.
  const auto run_pipeline = [&](const metrics::RunConfig& rc, int threads,
                                locks::SpinLockKind kind) {
    return metrics::run_experiment(rc, [&](kern::Kernel& k) {
      workloads::PipelineConfig pc;
      pc.n_stages = threads;
      pc.items = items;
      pc.stage_work = total_stage_work / threads;
      pc.uses_pause = lock_uses_pause(kind);
      workloads::spawn_spin_pipeline(k, pc);
    });
  };

  const auto& kinds = locks::all_spinlock_kinds();
  std::vector<std::string> kind_labels;
  for (const auto k : kinds) kind_labels.emplace_back(locks::to_string(k));
  std::vector<std::string> cfg_labels;
  for (const auto& c : kCfgs) cfg_labels.emplace_back(c.label);

  metrics::RunConfig base = cli.run_config();
  base.cpus = 8;
  base.sockets = 2;
  base.deadline = 2000_s;

  exp::Sweep sweep("bwd_spinlocks");
  sweep.base(base)
      .axis("mode", {"container", "vm"})
      .axis("spinlock", kind_labels)
      .axis("config", cfg_labels);

  bench::Harness h(cli, spec);
  if (h.listed({&sweep})) return 0;

  // Traced configuration: the TTAS pipeline at 32 threads (optimized) in a
  // container — the oversubscribed spin workload BWD exists to fix.
  metrics::RunConfig trace_cfg;
  trace_cfg.cpus = 8;
  trace_cfg.sockets = 2;
  trace_cfg.features = core::Features::optimized();
  trace_cfg.deadline = 2000_s;
  if (const auto code = h.traced(
          trace_cfg, "ttas 32T(opt) pipeline",
          [&](const metrics::RunConfig& rc) {
            return run_pipeline(rc, 32, locks::SpinLockKind::kTtas);
          },
          {trace::EventKind::kSwitchIn, trace::EventKind::kBwdSample,
           trace::EventKind::kBwdDesched})) {
    return *code;
  }

  const exp::Outcomes& out = h.run(
      sweep, [&](const exp::Cell& cell, const metrics::RunConfig& cfg) {
        const bool vm = cell.at(0) == 1;
        const std::size_t ci = cell.at(2);
        if (!vm && ci == 2) return exp::CellRun::na();  // PLE needs a VM
        metrics::RunConfig rc = cfg;
        rc.features = features_for(vm, ci);
        return exp::CellRun(
            run_pipeline(rc, kCfgs[ci].threads, kinds[cell.at(1)]));
      });

  const auto print_mode = [&](std::size_t mi, const char* header,
                              const char* what) {
    bench::print_header(header, what);
    std::vector<std::string> headers = {"spinlock"};
    for (const auto& c : kCfgs) {
      if (mi == 0 && std::string(c.label) == "32T(PLE)") continue;
      headers.emplace_back(c.label);
    }
    metrics::TablePrinter table(headers);
    for (std::size_t li = 0; li < kinds.size(); ++li) {
      std::vector<std::string> row = {kind_labels[li]};
      for (std::size_t ci = 0; ci < kCfgs.size(); ++ci) {
        const exp::CellOutcome& o = out.at({mi, li, ci});
        if (o.not_applicable) continue;
        row.push_back(o.ran() ? metrics::TablePrinter::num(o.ms(), 1) : "-");
      }
      table.add_row(row);
    }
    table.print();
  };
  print_mode(0, "Figure 13(a)", "spin pipeline in a container (exec ms)");
  print_mode(1, "Figure 13(b)", "spin pipeline in a KVM VM (exec ms)");

  return h.finish();
}
