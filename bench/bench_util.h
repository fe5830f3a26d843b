// The one harness path of the bench binaries.
//
// Every bench binary regenerates one table or figure from the paper. All of
// them share the `exp::Cli` command line (see src/exp/cli.h):
//
//   <bench> [scale] [--json=<path>] [--jobs=N] [--filter=<substr>] [--list]
//           [--seed=N] [--sched=cfs|fifo|rr|pcfs] [--trace=<path>]
//           [--trace-format=json|csv] [--trace-only] [--metrics[=<path>]]
//           [--metrics-interval=<us>] [--metrics-format=json|csv|report]
//           [--fleet-metrics[=<path>]] [--taskstats[=<path>]]
//           [--progress=none|line|jsonl] [--help]
//
// The positional scale multiplies the simulated round counts, so
// `./fig09_vb_blocking 1.0` runs the full-length experiment and the default
// keeps `for b in build/bench/*; do $b; done` quick.
//
// A bench writes only its own parts: the sweep axes, the per-cell run
// function and the tables. Everything else goes through one `Harness`:
//
//   const bench::Cli cli = bench::Cli::parse(argc, argv, spec);
//   metrics::RunConfig base = cli.run_config();  // --sched, --metrics*, ...
//   exp::Sweep sweep("name");
//   sweep.base(base).axis(...);
//   bench::Harness h(cli, spec);
//   if (h.listed({&sweep})) return 0;  // --list: ids only, nothing simulates
//   exp::Outcomes& out = h.run(sweep, [&](const exp::Cell& c,
//                                         const metrics::RunConfig& cfg) {...});
//   ... tables, derived values set on `out` ...
//   return h.finish();  // --json document + telemetry check of all sweeps
//
// `--trace` benches call `h.traced(...)` between `listed` and the first
// `run`; suite-benchmark cells run through `run_suite_cell`.
#pragma once

#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "exp/cli.h"
#include "exp/result.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "metrics/experiment.h"
#include "metrics/table_printer.h"
#include "obs/export.h"
#include "obs/fleet_agg.h"
#include "trace/export.h"
#include "trace/timeline.h"
#include "trace/trace.h"
#include "workloads/suite.h"

namespace eo::bench {

using Cli = exp::Cli;
using CliSpec = exp::CliSpec;

/// Exports the run's trace per the --trace* flags and cross-checks it: every
/// kind in `required` must be present, and the TimelineAnalyzer's
/// wakeup-latency quantiles must agree with the kernel's own histogram
/// within 1%. Returns false (after printing the reason) on any failure.
inline bool export_and_check_trace(
    const metrics::RunResult& r, const Cli& cli,
    std::initializer_list<trace::EventKind> required) {
  if (!r.trace) {
    std::fprintf(stderr,
                 "trace: run captured no trace (tracing not enabled on the "
                 "run)\n");
    return false;
  }
  const trace::Trace& tr = *r.trace;
  std::string err;
  if (!trace::export_to_file(tr, cli.trace_path, cli.trace_format, &err)) {
    std::fprintf(stderr, "trace: export failed: %s\n", err.c_str());
    return false;
  }
  std::printf("trace: wrote %zu events (%llu dropped) to %s [%s]\n",
              tr.events.size(),
              static_cast<unsigned long long>(tr.dropped),
              cli.trace_path.c_str(), cli.trace_format.c_str());

  bool ok = true;
  std::vector<std::uint64_t> counts(
      static_cast<std::size_t>(trace::EventKind::kCount), 0);
  for (const auto& e : tr.events) {
    if (e.kind < counts.size()) ++counts[e.kind];
  }
  for (const trace::EventKind k : required) {
    if (counts[static_cast<std::size_t>(k)] == 0) {
      std::fprintf(stderr, "trace: required event kind '%s' is absent\n",
                   trace::to_string(k));
      ok = false;
    }
  }

  const trace::TimelineStats tl = trace::TimelineAnalyzer::analyze(tr);
  const auto close = [](std::int64_t a, std::int64_t b) {
    const double da = static_cast<double>(a);
    const double db = static_cast<double>(b);
    return std::fabs(da - db) <=
           0.01 * std::max(std::fabs(da), std::fabs(db)) + 1e-9;
  };
  std::printf("trace: wakeup latency p50=%lld ns p99=%lld ns over %llu "
              "wakeups (kernel: p50=%lld p99=%lld over %llu)\n",
              static_cast<long long>(tl.wakeup_latency.p50()),
              static_cast<long long>(tl.wakeup_latency.p99()),
              static_cast<unsigned long long>(tl.wakeup_latency.total_count()),
              static_cast<long long>(r.wakeup_latency.p50()),
              static_cast<long long>(r.wakeup_latency.p99()),
              static_cast<unsigned long long>(
                  r.wakeup_latency.total_count()));
  if (tr.dropped == 0) {
    // With no ring overwrites the trace holds every wakeup, so the analyzer
    // must reproduce the kernel's histogram.
    if (!close(tl.wakeup_latency.p50(), r.wakeup_latency.p50()) ||
        !close(tl.wakeup_latency.p99(), r.wakeup_latency.p99())) {
      std::fprintf(stderr,
                   "trace: analyzer wakeup-latency quantiles diverge >1%% "
                   "from the kernel histogram\n");
      ok = false;
    }
  }
  return ok;
}

/// Exports the folded-stack state flamegraph when --taskstats=<path> was
/// given. `workload` becomes the root frame. Returns true when no path was
/// requested or the export succeeds.
inline bool export_taskstats_folded(
    const std::shared_ptr<obs::TaskstatsDoc>& doc, const Cli& cli,
    const std::string& workload) {
  if (cli.taskstats_path.empty()) return true;
  if (!doc) {
    std::fprintf(stderr, "taskstats: run captured no per-task accounting\n");
    return false;
  }
  std::string err;
  if (!json::write_file(cli.taskstats_path, obs::render_folded(*doc, workload),
                        nullptr, &err)) {
    std::fprintf(stderr, "taskstats: export failed: %s\n", err.c_str());
    return false;
  }
  std::printf("taskstats: wrote folded stacks for %zu task(s) to %s\n",
              doc->tasks.size(), cli.taskstats_path.c_str());
  return true;
}

/// Checks one run's telemetry document and, when --metrics=<path> was given,
/// exports it in the requested format. Any recorded watchdog violation fails
/// the bench. Returns true when everything checks out.
inline bool export_and_check_metrics(const obs::MetricsDoc& m,
                                     const Cli& cli) {
  if (m.watchdog_violations != 0) {
    std::fprintf(stderr,
                 "metrics: watchdog recorded %llu invariant violation(s) "
                 "over %llu checks\n",
                 static_cast<unsigned long long>(m.watchdog_violations),
                 static_cast<unsigned long long>(m.watchdog_checks));
    for (const auto& v : m.violation_records) {
      std::fprintf(stderr, "metrics:   t=%lld %s: %s\n",
                   static_cast<long long>(v.ts), v.invariant.c_str(),
                   v.detail.c_str());
    }
    return false;
  }
  std::printf("metrics: %llu samples (%llu dropped), %llu watchdog checks, "
              "0 violations\n",
              static_cast<unsigned long long>(m.ticks),
              static_cast<unsigned long long>(m.dropped_ticks),
              static_cast<unsigned long long>(m.watchdog_checks));
  if (cli.metrics_path.empty()) return true;
  std::string err;
  if (!obs::export_to_file(m, cli.metrics_path, cli.metrics_format, &err)) {
    std::fprintf(stderr, "metrics: export failed: %s\n", err.c_str());
    return false;
  }
  std::printf("metrics: wrote %s [%s]\n", cli.metrics_path.c_str(),
              cli.metrics_format.c_str());
  return true;
}

/// One run sweep and its outcomes, as Harness::run keeps them.
struct SweepRun {
  exp::Sweep sweep;
  exp::Outcomes out;
};

/// Bench-level telemetry check over every sweep: every ran cell must report
/// zero watchdog violations, and one representative cell (the first ran
/// cell, sweeps in run order) is exported per the --metrics* flags. With
/// --taskstats=<path>, the same cell's folded-stack state flamegraph is
/// exported too, rooted at `folded_root` (the cell id when empty). Returns
/// true when --metrics is off or all cells pass.
inline bool check_sweep_metrics(const std::deque<SweepRun>& runs,
                                const Cli& cli,
                                const std::string& folded_root = "") {
  if (!cli.metrics) return true;
  const exp::CellOutcome* rep = nullptr;
  bool ok = true;
  for (const SweepRun& r : runs) {
    for (const auto& o : r.out) {
      if (!o.ran() || !o.run.metrics) continue;
      if (!rep) rep = &o;
      const obs::MetricsDoc& m = *o.run.metrics;
      if (m.watchdog_violations != 0) {
        std::fprintf(stderr,
                     "metrics: cell '%s': %llu watchdog violation(s)\n",
                     o.cell.id().c_str(),
                     static_cast<unsigned long long>(m.watchdog_violations));
        ok = false;
      }
    }
  }
  if (!rep) {
    std::fprintf(stderr, "metrics: no cell captured telemetry\n");
    return false;
  }
  ok = export_and_check_metrics(*rep->run.metrics, cli) && ok;
  return export_taskstats_folded(
             rep->run.taskstats, cli,
             folded_root.empty() ? rep->cell.id() : folded_root) &&
         ok;
}

/// Fleet-level telemetry check (--fleet-metrics benches): every ran cell
/// must carry a merged eo-metrics-fleet document with zero watchdog
/// violations; one representative document (first ran cell in flat order) is
/// summarized for imbalance and exported when a path was given. `docs` is
/// indexed by cell flat index. Returns true when --fleet-metrics is off or
/// everything checks out.
inline bool check_fleet_metrics(
    const std::vector<std::shared_ptr<obs::FleetMetricsDoc>>& docs,
    const exp::Outcomes& out, const Cli& cli) {
  if (!cli.fleet_metrics) return true;
  const obs::FleetMetricsDoc* rep = nullptr;
  bool ok = true;
  for (const auto& o : out) {
    if (!o.ran()) continue;
    const auto& d = docs[o.cell.flat];
    if (!d) {
      std::fprintf(stderr, "fleet-metrics: cell '%s' captured no fleet "
                           "telemetry\n",
                   o.cell.id().c_str());
      ok = false;
      continue;
    }
    if (!rep) rep = d.get();
    if (d->watchdog_violations != 0) {
      std::fprintf(stderr,
                   "fleet-metrics: cell '%s': %llu watchdog violation(s)\n",
                   o.cell.id().c_str(),
                   static_cast<unsigned long long>(d->watchdog_violations));
      for (const auto& v : d->violation_records) {
        std::fprintf(stderr, "fleet-metrics:   t=%lld %s: %s\n",
                     static_cast<long long>(v.ts), v.invariant.c_str(),
                     v.detail.c_str());
      }
      ok = false;
    }
  }
  if (!rep) {
    std::fprintf(stderr, "fleet-metrics: no cell captured fleet telemetry\n");
    return false;
  }
  // Imbalance summary across the representative cell's hosts.
  std::int64_t p99_min = 0, p99_max = 0;
  std::uint64_t shed_max = 0;
  for (std::size_t h = 0; h < rep->hosts.size(); ++h) {
    const obs::FleetHostEntry& e = rep->hosts[h];
    if (h == 0 || e.p99_ns < p99_min) p99_min = e.p99_ns;
    if (h == 0 || e.p99_ns > p99_max) p99_max = e.p99_ns;
    if (e.shed > shed_max) shed_max = e.shed;
  }
  std::printf("fleet-metrics: %d hosts, host p99 %.1f-%.1f us, max "
              "host shed %llu, %llu watchdog checks\n",
              rep->n_hosts, static_cast<double>(p99_min) / 1e3,
              static_cast<double>(p99_max) / 1e3,
              static_cast<unsigned long long>(shed_max),
              static_cast<unsigned long long>(rep->watchdog_checks));
  if (cli.fleet_metrics_path.empty()) return ok;
  std::string err;
  if (!obs::export_fleet_to_file(*rep, cli.fleet_metrics_path, "json",
                                 &err)) {
    std::fprintf(stderr, "fleet-metrics: export failed: %s\n", err.c_str());
    return false;
  }
  std::printf("fleet-metrics: wrote %s\n", cli.fleet_metrics_path.c_str());
  return ok;
}

inline void print_header(const char* id, const char* what) {
  std::printf("=== %s: %s ===\n", id, what);
}

/// One suite-benchmark cell: `bspec` at `threads` threads under `cfg`, with
/// the compute rate calibrated to the benchmark's reference footprint.
inline metrics::RunResult run_suite_cell(const workloads::BenchmarkSpec& bspec,
                                         int threads,
                                         const metrics::RunConfig& cfg,
                                         const Cli& cli) {
  metrics::RunConfig rc = cfg;
  rc.ref_footprint = bspec.ref_footprint();
  return metrics::run_experiment(rc, [&](kern::Kernel& k) {
    workloads::spawn_benchmark(k, bspec, threads, cli.seed, cli.scale);
  });
}

/// The list-or-run entry, the sweep runner and the result tail every bench
/// shares (see the file comment for the call order).
class Harness {
 public:
  using TracedRun =
      std::function<metrics::RunResult(const metrics::RunConfig&)>;

  Harness(const Cli& cli, const CliSpec& spec)
      : cli_(cli),
        opts_(cli.runner_options()),
        doc_(spec.id, cli.scale, cli.seed) {}

  /// Under --list prints the (filtered) cell ids of every sweep, in order,
  /// and returns true: the bench then exits 0 before anything simulates.
  bool listed(std::initializer_list<const exp::Sweep*> sweeps) const {
    if (!cli_.list) return false;
    for (const exp::Sweep* s : sweeps) {
      exp::ExperimentRunner(*s, opts_).list(std::cout);
    }
    return true;
  }

  /// The --trace prelude: runs `cfg` once under --sched with tracing on
  /// (1M-event rings), prints its exec time under `label`, then exports and
  /// checks the trace (export_and_check_trace). Returns the bench's exit
  /// code when it stops here (1 on a failed check, 0 under --trace-only),
  /// nullopt when it goes on to its grid or --trace was not given.
  std::optional<int> traced(metrics::RunConfig cfg, const char* label,
                            const TracedRun& run,
                            std::initializer_list<trace::EventKind> required)
      const {
    if (!cli_.tracing()) return std::nullopt;
    cfg.sched = cli_.sched;
    cfg.trace.enabled = true;
    cfg.trace.ring_capacity = 1u << 20;
    const metrics::RunResult r = run(cfg);
    std::printf("traced run: %s exec=%s ms\n", label,
                metrics::TablePrinter::num(to_ms(r.exec_time), 1).c_str());
    if (!export_and_check_trace(r, cli_, required)) return 1;
    if (cli_.trace_only) return 0;
    return std::nullopt;
  }

  /// Runs one sweep and keeps its outcomes for finish(). The reference
  /// stays valid, so derived values set on it land in the document.
  exp::Outcomes& run(const exp::Sweep& sweep,
                     const exp::ExperimentRunner::RunFn& fn) {
    runs_.push_back({sweep, exp::ExperimentRunner(sweep, opts_).run(fn)});
    return runs_.back().out;
  }

  /// The --progress sink (null for "none"), for fleets that feed it too.
  obs::ProgressSink* progress() const { return opts_.sink.get(); }

  /// The result document, for benches adding their own `meta`.
  exp::ResultDoc& doc() { return doc_; }

  /// Writes the document of every run sweep when --json was given, then
  /// runs the telemetry check over all of them once (check_sweep_metrics,
  /// folded root per `folded_root`). Returns the bench's exit code.
  int finish(const std::string& folded_root = "") {
    bool ok = true;
    for (const SweepRun& r : runs_) doc_.add_sweep(r.sweep, r.out);
    if (!cli_.json_path.empty()) {
      std::string err;
      if (doc_.write(cli_.json_path, &err)) {
        std::printf("json: wrote %s\n", cli_.json_path.c_str());
      } else {
        std::fprintf(stderr, "json: writing %s failed: %s\n",
                     cli_.json_path.c_str(), err.c_str());
        ok = false;
      }
    }
    ok = check_sweep_metrics(runs_, cli_, folded_root) && ok;
    return ok ? 0 : 1;
  }

 private:
  const Cli& cli_;
  exp::RunnerOptions opts_;
  exp::ResultDoc doc_;
  std::deque<SweepRun> runs_;  // deque: run() hands out stable references
};

}  // namespace eo::bench
