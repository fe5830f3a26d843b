// Figure 2: the direct cost of context switching.
//  (a) pure computation: N threads share one core, yielding every 750 µs;
//      the per-context-switch cost should be ~1.5 µs and the total overhead
//      ~0.2%, flat in the thread count.
//  (b) computation with synchronization: one shared atomic fetch-add per
//      chunk adds no extra oversubscription overhead.
#include "bench_util.h"
#include "workloads/microbench.h"

using namespace eo;

int main(int argc, char** argv) {
  const bench::CliSpec spec{
      .id = "fig02_direct_cost",
      .summary = "direct context-switch cost, 1..8 threads on 1 core",
      .default_scale = 1.0,
      .supports_trace = true};
  const bench::Cli cli = bench::Cli::parse(argc, argv, spec);

  metrics::RunConfig base = cli.run_config();
  base.cpus = 1;
  base.sockets = 1;
  base.deadline = 600_s;

  std::vector<std::string> thread_labels;
  for (int t = 1; t <= 8; ++t) thread_labels.push_back(std::to_string(t) + "T");

  exp::Sweep sweep("direct_cost");
  sweep.base(base)
      .axis("variant", {"pure", "atomic"})
      .axis("threads", thread_labels);

  bench::Harness h(cli, spec);
  if (h.listed({&sweep})) return 0;

  const auto work = static_cast<SimDuration>(2_s * cli.scale);
  // Traced configuration: 8 threads time-sharing one core with a shared
  // atomic per chunk — a dense stream of context switches and wakeups.
  metrics::RunConfig trace_cfg;
  trace_cfg.cpus = 1;
  trace_cfg.sockets = 1;
  trace_cfg.deadline = 600_s;
  if (const auto code = h.traced(
          trace_cfg, "8T atomic-yield on 1 core",
          [&](const metrics::RunConfig& rc) {
            return metrics::run_experiment(rc, [&](kern::Kernel& k) {
              workloads::spawn_compute_atomic(k, 8, work, 750_us);
            });
          },
          {trace::EventKind::kSwitchIn, trace::EventKind::kSwitchOut})) {
    return *code;
  }

  exp::Outcomes& out = h.run(
      sweep, [&](const exp::Cell& cell, const metrics::RunConfig& cfg) {
        const bool with_atomic = cell.at(0) == 1;
        const int threads = static_cast<int>(cell.at(1)) + 1;
        return metrics::run_experiment(cfg, [&](kern::Kernel& k) {
          if (with_atomic) {
            workloads::spawn_compute_atomic(k, threads, work, 750_us);
          } else {
            workloads::spawn_compute_yield(k, threads, work, 750_us);
          }
        });
      });

  // Derived values: execution time normalized to the 1-thread cell of the
  // same variant, and the measured direct cost per context switch.
  for (std::size_t v = 0; v < 2; ++v) {
    const exp::CellOutcome& base_cell = out.at({v, 0});
    if (!base_cell.ran()) continue;
    const double t1 = base_cell.ms();
    for (std::size_t t = 0; t < thread_labels.size(); ++t) {
      exp::CellOutcome& o = out.at({v, t});
      if (!o.ran()) continue;
      const auto switches = o.run.stats.context_switches;
      o.set("normalized", o.ms() / t1);
      o.set("per_cs_us", switches > 0 ? (o.ms() - t1) * 1000.0 /
                                            static_cast<double>(switches)
                                      : 0.0);
    }
  }

  const auto print_variant = [&](std::size_t v, const char* header,
                                 const char* what) {
    bench::print_header(header, what);
    metrics::TablePrinter t({"threads", "normalized", "per-CS cost (us)"});
    for (std::size_t i = 0; i < thread_labels.size(); ++i) {
      const exp::CellOutcome& o = out.at({v, i});
      if (!o.ran()) continue;
      t.add_row({std::to_string(i + 1),
                 metrics::TablePrinter::num(o.value("normalized"), 3),
                 metrics::TablePrinter::num(o.value("per_cs_us"))});
    }
    t.print();
  };
  print_variant(0, "Figure 2(a)", "pure computation, yield every 750us, 1 core");
  print_variant(1, "Figure 2(b)",
                "computation with shared atomic fetch-add per chunk");

  return h.finish();
}
