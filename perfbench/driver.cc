// perfbench driver: host cost of reproducing the simulator's results, end to
// end and per layer.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--out <dir>]
//
// Workloads (see README.md for why each was chosen):
//   serve_vanilla        open-loop Poisson fleet, VB/BWD off, obs off, hosts
//                        simulated sequentially
//   serve_optimized_obs  the same fleet with VB+BWD and full telemetry
//                        (sampler, watchdog, taskstats, fleet merge), hosts
//                        fanned out over 2 host threads
//   sync_suite           the Figure 9 PARSEC/SPLASH cells on 2 sockets
//
// The driver is a closed loop: it starts the next simulated machine run only
// after the previous one returned, and repeats whole workload passes until
// --seconds of host time have elapsed. It reaches the simulator only through
// public entry points. With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it alternates untraced and traced passes, records spans around
// each public call, writes them under --out at exit and prints the per-layer
// metrics. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad
// arguments.
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exp/result.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "metrics/experiment.h"
#include "obs/export.h"
#include "obs/fleet_agg.h"
#include "obs/progress.h"
#include "spans.h"
#include "traffic/fleet.h"
#include "traffic/slo.h"
#include "workloads/suite.h"

namespace {

using namespace eo;
using perfbench::Clock;
using perfbench::ScopedSpan;
using perfbench::SpanLog;

constexpr const char* kUsage =
    "usage: perfbench_driver --workload serve_vanilla|serve_optimized_obs|"
    "sync_suite --seed <n> --seconds <s> --trace 0|1 [--out <dir>]\n"
    "  --trace 1 requires --out (the span file and layer table go there)\n";

// --- workload sizes --------------------------------------------------------

// Serving fleets: a small slice of fig_serve_openloop's million-connection
// configuration (default host shape: 16 epoll workers on 8 cores), at the two
// offered loads that bracket its SLO knee.
constexpr int kServeHosts = 4;
constexpr std::uint32_t kServeConnsPerHost = 32768;
constexpr double kServeLoads[] = {0.6, 0.95};
const std::vector<std::string> kServeLoadLabels = {"0.6x", "0.95x"};
constexpr std::size_t kServeObsJobs = 2;
/// Measurement window per host: 4x fig_serve_openloop's 40 ms, so one host
/// run lasts a few hundred host ms and a 30 s run holds ~100-150 of them.
/// Short host runs put the run_ms tail at an extreme percentile, where a
/// single stall of a neighbouring host thread decides it.
constexpr SimDuration kServeWindow = 160_ms;

// Figure 9 suite: every blocking benchmark in all six configurations.
constexpr double kSuiteScale = 0.2;
struct SuiteConfig {
  const char* label;
  int threads;
  bool optimized;
  bool smt;
};
constexpr SuiteConfig kSuiteConfigs[] = {
    {"8T(van-8c)", 8, false, false},  {"32T(van-8c)", 32, false, false},
    {"32T(opt-8c)", 32, true, false}, {"8T(van-8ht)", 8, false, true},
    {"32T(van-8ht)", 32, false, true}, {"32T(opt-8ht)", 32, true, true},
};

/// Set-up runs this many times before every pass (so it samples the same
/// host conditions as the passes), and at least kMinSetupReps times in all;
/// the median is reported.
constexpr int kSetupRepsPerPass = 5;
constexpr std::size_t kMinSetupReps = 15;

// --- small helpers ---------------------------------------------------------

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID) or of the whole
/// process (CLOCK_PROCESS_CPUTIME_ID), in ms. Unlike wall time it leaves out
/// intervals the thread did not run (preemption, and in a VM with steal-time
/// accounting, time the hypervisor stole). It still counts time the thread
/// ran slowly because other tenants contend for caches and memory.
double cpu_ms(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile of `v` with at least 10 samples beyond it: the
/// 11th-largest sample, at percentile 100 * (n - 10) / n. Falls back to the
/// median when there are too few samples.
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
};
Tail tail_of(std::vector<double> v) {
  if (v.size() <= 10) return {median(std::move(v)), 50.0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return {v[n - 11], 100.0 * static_cast<double>(n - 10) /
                         static_cast<double>(n)};
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

// --- command line ----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
};

bool parse_u64(const char* s, std::uint64_t* v) {
  if (*s == '\0' || std::strspn(s, "0123456789") != std::strlen(s)) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long x = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *v = x;
  return true;
}

/// A size: finite and strictly positive.
bool parse_size(const char* s, double* v) {
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno != 0 || !std::isfinite(x) ||
      x <= 0.0) {
    return false;
  }
  *v = x;
  return true;
}

bool known_workload(const std::string& w) {
  return w == "serve_vanilla" || w == "serve_optimized_obs" ||
         w == "sync_suite";
}

/// 0 on success, 2 (after printing the reason and usage) otherwise.
int parse_args(int argc, char** argv, Args* a) {
  const auto bad = [](const std::string& why) {
    std::fprintf(stderr, "perfbench_driver: %s\n%s", why.c_str(), kUsage);
    return 2;
  };
  bool have_w = false, have_seed = false, have_s = false, have_t = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return bad("missing value for '" + flag + "'");
    const char* val = argv[++i];
    if (flag == "--workload") {
      a->workload = val;
      if (!known_workload(a->workload)) {
        return bad("unknown workload '" + a->workload + "'");
      }
      have_w = true;
    } else if (flag == "--seed") {
      if (!parse_u64(val, &a->seed)) return bad("bad --seed '" + std::string(val) + "'");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_size(val, &a->seconds) || a->seconds > 3600.0) {
        return bad("--seconds must be finite, positive and at most 3600");
      }
      have_s = true;
    } else if (flag == "--trace") {
      const std::string t = val;
      if (t != "0" && t != "1") return bad("--trace must be 0 or 1");
      a->trace = t == "1";
      have_t = true;
    } else if (flag == "--out") {
      a->out = val;
      if (a->out.empty()) return bad("--out must not be empty");
    } else {
      return bad("unknown flag '" + flag + "'");
    }
  }
  if (!have_w || !have_seed || !have_s || !have_t) {
    return bad("--workload, --seed, --seconds and --trace are required");
  }
  if (a->trace && a->out.empty()) return bad("--trace 1 requires --out");
  return 0;
}

// --- per-pass measurements -------------------------------------------------

/// Per-layer counts of one workload pass. A pure function of the workload
/// and seed, so every pass of a run (and every run of a seed) must agree.
using Counts = std::map<std::string, double>;

/// Every per-layer count, so each workload prints the full set (zero where a
/// layer does no work or cannot be read; see Workload::dropped()).
const char* const kCountNames[] = {
    "sim.events",
    "kern.context_switches",
    "kern.wakeups",
    "sched.migrations_in_node",
    "sched.migrations_cross_node",
    "sched.wakeup_migrations",
    "sched.involuntary_switches",
    "futex.sleeps",
    "futex.wakes",
    "epoll.instance_locks",
    "epoll.instance_locks_contended",
    "core.vb_parks",
    "core.vb_unparks",
    "core.vb_fallback_vanilla",
    "core.bwd_timer_fires",
    "core.bwd_detections",
    "hw.sampled_windows",
    "core.bwd_precision",
    "traffic.issued",
    "traffic.completed",
    "traffic.shed_frac",
    "obs.fleet_doc_bytes",
    "obs.watchdog_checks",
    "obs.watchdog_violations",
    "obs.taskstats_tasks",
    "exp.cells",
    "exp.attempts_per_cell",
};

Counts zero_counts() {
  Counts c;
  for (const char* n : kCountNames) c[n] = 0.0;
  return c;
}

void add_sched_stats(const sched::SchedStats& s, Counts* c) {
  (*c)["kern.context_switches"] += static_cast<double>(s.context_switches);
  (*c)["kern.wakeups"] += static_cast<double>(s.wakeups);
  (*c)["sched.migrations_in_node"] += static_cast<double>(s.migrations_in_node);
  (*c)["sched.migrations_cross_node"] +=
      static_cast<double>(s.migrations_cross_node);
  (*c)["sched.wakeup_migrations"] += static_cast<double>(s.wakeup_migrations);
  (*c)["sched.involuntary_switches"] +=
      static_cast<double>(s.involuntary_switches);
  (*c)["futex.sleeps"] += static_cast<double>(s.futex_sleeps);
  (*c)["futex.wakes"] += static_cast<double>(s.futex_wakes);
  (*c)["core.vb_parks"] += static_cast<double>(s.vb_parks);
  (*c)["core.vb_unparks"] += static_cast<double>(s.vb_unparks);
  (*c)["core.vb_fallback_vanilla"] += static_cast<double>(s.vb_fallback_vanilla);
  (*c)["core.bwd_timer_fires"] += static_cast<double>(s.bwd_timer_fires);
  (*c)["core.bwd_detections"] += static_cast<double>(s.bwd_detections);
}

/// BWD precision over the pass: true positives / detections.
void set_precision(double tp, double fp, Counts* c) {
  (*c)["core.bwd_precision"] = tp + fp > 0 ? tp / (tp + fp) : 0.0;
}

struct Pass {
  // Set by the measurement loop around Workload::pass.
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time, all host threads
  /// Host CPU ms of each simulated machine run (fleet host or suite cell)
  /// that finished: the CPU time of the one thread that simulated it.
  std::vector<double> run_ms;
  std::uint64_t attempted = 0;  ///< machine runs started
  std::uint64_t failed = 0;     ///< machine runs that failed a check
  std::vector<std::string> failures;
  /// Completed simulated requests (serve) or thread-rounds (suite).
  double work_units = 0.0;
  Counts counts = zero_counts();
  std::uint64_t digest = kFnvBasis;  ///< of the simulated results
};

struct Setup {
  /// Host CPU ms of everything built before simulated time first advances.
  double total_ms = 0.0;
  double kern_construct_ms = 0.0;
  double spawn_ms = 0.0;
  double fleet_construct_ms = 0.0;
};

/// Records one call as a span and returns its host CPU ms on this thread.
template <class F>
double timed(SpanLog& log, const char* name, int parent, int run, F&& f) {
  const double t0 = cpu_ms(CLOCK_THREAD_CPUTIME_ID);
  {
    ScopedSpan s(log, name, parent, run);
    f();
  }
  return cpu_ms(CLOCK_THREAD_CPUTIME_ID) - t0;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds everything a pass builds, up to the point where simulated time
  /// would first advance, then tears it down.
  virtual Setup setup(SpanLog& log, int run) = 0;
  virtual Pass pass(SpanLog& log, int run) = 0;
  /// Host threads the workload simulates on.
  virtual std::size_t threads() const = 0;
  /// Per-layer metrics this workload cannot read from outside the
  /// simulator, with the reason (they print as 0).
  virtual std::vector<std::pair<std::string, std::string>> dropped() const = 0;
};

/// Renders and validates the pass's eo-bench-result document; its text
/// (simulated values only: meta carries no host data) seeds the digest.
void finish_doc(SpanLog& log, int top, int run, const std::string& id,
                std::uint64_t seed, const exp::Sweep& sweep,
                std::vector<exp::CellOutcome> outcomes, Pass* p) {
  const std::size_t n_cells = outcomes.size();
  exp::ResultDoc doc(id, 1.0, seed);
  // Set explicitly: the default would shell out to git.
  doc.set_meta("git_rev", "none");
  doc.add_sweep(sweep, exp::Outcomes(sweep.dims(), std::move(outcomes)));
  std::string text, err;
  timed(log, "exp.render", top, run, [&] { text = doc.render(); });
  bool ok = true;
  timed(log, "exp.validate", top, run,
        [&] { ok = exp::validate_result_json(text, &err); });
  if (!ok) {
    // The document covers every machine run of the pass.
    p->failed = p->attempted;
    p->failures.push_back("result document rejected: " + err);
  }
  p->counts["exp.cells"] = static_cast<double>(n_cells);
  p->digest = fnv1a(p->digest, text);
}

// --- serving fleets --------------------------------------------------------

/// The benchmark's progress sink: each host run's CPU time, read on the host
/// thread that simulates it (always), and one "kern.host_run" span per host
/// (traced passes). Each host touches only its own slots, and run() joins its
/// threads before the slots are read.
class HostClock final : public obs::ProgressSink {
 public:
  HostClock(SpanLog& log, int n_hosts, int run)
      : log_(log),
        run_(run),
        start_(static_cast<std::size_t>(n_hosts), 0.0),
        end_(static_cast<std::size_t>(n_hosts), -1.0),
        span_(static_cast<std::size_t>(n_hosts), -1),
        completed_(static_cast<std::size_t>(n_hosts), 0),
        violations_(static_cast<std::size_t>(n_hosts), 0) {}

  void set_parent(int span) { parent_ = span; }

  void emit(const obs::ProgressEvent& ev) override {
    if (ev.host < 0 || static_cast<std::size_t>(ev.host) >= start_.size()) {
      return;
    }
    const auto h = static_cast<std::size_t>(ev.host);
    if (ev.kind == obs::ProgressEvent::Kind::kHostStart) {
      start_[h] = cpu_ms(CLOCK_THREAD_CPUTIME_ID);
      span_[h] = log_.open("kern.host_run", parent_, run_);
    } else if (ev.kind == obs::ProgressEvent::Kind::kHostFinish) {
      end_[h] = cpu_ms(CLOCK_THREAD_CPUTIME_ID);
      log_.close(span_[h]);
      completed_[h] = ev.completed;
      violations_[h] = ev.watchdog_violations;
    }
  }

  std::size_t n_hosts() const { return start_.size(); }
  bool finished(std::size_t h) const { return end_[h] >= 0.0; }
  double host_cpu_ms(std::size_t h) const { return end_[h] - start_[h]; }
  std::uint64_t completed(std::size_t h) const { return completed_[h]; }
  std::uint64_t violations(std::size_t h) const { return violations_[h]; }

 private:
  SpanLog& log_;
  int run_;
  int parent_ = -1;
  std::vector<double> start_;
  std::vector<double> end_;
  std::vector<int> span_;
  std::vector<std::uint64_t> completed_;
  std::vector<std::uint64_t> violations_;
};

/// Why exp.attempts_per_cell is dropped on every workload.
constexpr const char* kNoRetries =
    "the driver runs each machine run once, without the runner's retry "
    "loop, so there is no attempt count to read";

double counter(const obs::FleetMetricsDoc& d, const char* name) {
  for (const auto& c : d.counters) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  return 0.0;
}

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(std::string name, bool optimized_obs, std::size_t jobs,
                std::uint64_t seed)
      : name_(std::move(name)),
        obs_(optimized_obs),
        jobs_(jobs),
        seed_(seed),
        sweep_("serve") {
    metrics::RunConfig base;
    base.cpus = 8;
    base.sockets = 1;
    base.seed = seed;
    base.features = obs_ ? core::Features::optimized()
                         : core::Features::vanilla();
    base.metrics.enabled = obs_;
    base.taskstats = obs_;
    sweep_.base(base).axis("load", kServeLoadLabels);
    cells_ = sweep_.expand();
    for (const exp::Cell& c : cells_) {
      traffic::FleetConfig fc;
      fc.n_hosts = kServeHosts;
      fc.host.n_connections = kServeConnsPerHost;
      fc.kernel = metrics::make_kernel_config(c.cfg);
      fc.arrival.kind = traffic::ArrivalKind::kPoisson;
      // Capacity-relative load, as in fig_serve_openloop.
      const double capacity_ops_s = static_cast<double>(base.cpus) * 1e9 /
                                    traffic::mean_request_cost_ns(fc.host);
      fc.arrival.rate_per_sec = kServeLoads[c.at(0)] * capacity_ops_s;
      fc.window = kServeWindow;
      fc.seed = seed;
      fc.jobs = jobs_;
      fleets_.push_back(fc);
    }
    conns_.resize(kServeConnsPerHost);
  }

  std::size_t threads() const override { return jobs_; }

  std::vector<std::pair<std::string, std::string>> dropped() const override {
    std::vector<std::pair<std::string, std::string>> d = {
        {"sim.events", "ConnectionFleet owns its hosts' kernels, so the "
                       "engine's event count is not reachable from outside"},
        {"sim.ns_per_event", "needs sim.events"},
        {"workloads.spawn_ms", "ServeHost::start spawns the serving "
                               "workers after the fleet's host-start event, "
                               "so that time is inside run_ms"},
        {"exp.attempts_per_cell", kNoRetries},
    };
    if (!obs_) {
      for (const char* m : {"epoll.instance_locks",
                            "epoll.instance_locks_contended",
                            "hw.sampled_windows", "core.bwd_precision",
                            "obs.fleet_render_ms"}) {
        d.emplace_back(m, "obs is off in this workload: registry counters "
                          "and fleet documents are not produced");
      }
    }
    return d;
  }

  /// ConnectionFleet::run builds each host (kernel and ServeHost) before
  /// its host-start event and times nothing from outside, so this replays
  /// that per-host construction, with the fleet's host-seed mix, through the
  /// same public constructors. ServeHost::start, which spawns the workers,
  /// runs after host-start and is counted in run_ms instead.
  Setup setup(SpanLog& log, int run) override {
    Setup s;
    for (const traffic::FleetConfig& fc : fleets_) {
      std::optional<traffic::ConnectionFleet> fleet;
      s.fleet_construct_ms += timed(log, "traffic.fleet_construct", -1, run,
                                    [&] { fleet.emplace(fc); });
      for (int h = 0; h < fc.n_hosts; ++h) {
        kern::KernelConfig kc = fc.kernel;
        kc.seed = Rng(fc.seed + 0x9e3779b97f4a7c15ull *
                                    (static_cast<std::uint64_t>(h) + 1))
                      .next_u64();
        std::optional<kern::Kernel> k;
        s.kern_construct_ms += timed(log, "kern.construct", -1, run,
                                     [&] { k.emplace(kc); });
        std::optional<traffic::ServeHost> host;
        s.total_ms += timed(log, "traffic.host_construct", -1, run, [&] {
          host.emplace(*k, fc.host, conns_.data(), fc.arrival, kc.seed);
        });
      }
    }
    s.total_ms += s.fleet_construct_ms + s.kern_construct_ms;
    return s;
  }

  Pass pass(SpanLog& log, int run) override {
    Pass p;
    Counts& c = p.counts;
    std::vector<exp::CellOutcome> outcomes;
    std::string docs;  // fleet documents, folded into the digest
    {
      ScopedSpan pass_span(log, "bench.pass", -1, run);
      const int top = pass_span.id();
      double tp = 0, fp = 0;
      for (std::size_t i = 0; i < fleets_.size(); ++i) {
        traffic::FleetConfig fc = fleets_[i];
        HostClock clock(log, fc.n_hosts, run);
        fc.progress = &clock;
        std::optional<traffic::ConnectionFleet> fleet;
        timed(log, "traffic.fleet_construct", top, run,
              [&] { fleet.emplace(fc); });
        traffic::FleetResult fr;
        {
          ScopedSpan s(log, "traffic.fleet_run", top, run);
          clock.set_parent(s.id());
          fr = fleet->run();
        }
        traffic::SloPoint pt;
        timed(log, "traffic.summarize", top, run, [&] {
          pt = traffic::SloReporter::summarize(
              fc.arrival.rate_per_sec * fc.n_hosts, fr, fc.window + fc.drain);
        });

        std::string fleet_fail;
        if (obs_) {
          if (!fr.fleet_metrics || !fr.metrics || !fr.taskstats) {
            fleet_fail = "fleet produced no telemetry";
          } else {
            std::string doc, host_doc, err;
            timed(log, "obs.render_fleet", top, run, [&] {
              doc = obs::render_fleet(*fr.fleet_metrics, "json");
            });
            timed(log, "obs.validate_fleet", top, run, [&] {
              if (!obs::validate_fleet_metrics_json(doc, &err)) {
                fleet_fail = "fleet document rejected: " + err;
              }
            });
            // The representative host's document embeds its eo-taskstats
            // section, which the validator checks for conservation.
            timed(log, "obs.render_metrics", top, run,
                  [&] { host_doc = obs::render(*fr.metrics, "json"); });
            timed(log, "obs.validate_metrics", top, run, [&] {
              if (!obs::validate_metrics_json(host_doc, &err)) {
                fleet_fail = "metrics/taskstats document rejected: " + err;
              }
            });
            const obs::FleetMetricsDoc& fd = *fr.fleet_metrics;
            c["obs.fleet_doc_bytes"] += static_cast<double>(doc.size());
            c["obs.watchdog_checks"] += static_cast<double>(fd.watchdog_checks);
            c["obs.watchdog_violations"] +=
                static_cast<double>(fd.watchdog_violations);
            c["obs.taskstats_tasks"] +=
                static_cast<double>(fr.taskstats->tasks.size());
            c["epoll.instance_locks"] += counter(fd, "epoll.instance_locks");
            c["epoll.instance_locks_contended"] +=
                counter(fd, "epoll.instance_locks_contended");
            c["hw.sampled_windows"] += counter(fd, "bwd.truth_windows");
            tp += counter(fd, "bwd.truth_tp");
            fp += counter(fd, "bwd.truth_fp");
            docs += doc;
            docs += host_doc;
          }
        }

        for (std::size_t h = 0; h < clock.n_hosts(); ++h) {
          ++p.attempted;
          std::string why = fleet_fail;
          if (!clock.finished(h)) {
            why = "host never finished";
          } else {
            p.run_ms.push_back(clock.host_cpu_ms(h));
            if (clock.completed(h) == 0) why = "host completed no request";
            if (clock.violations(h) != 0) why = "watchdog violation";
          }
          if (!why.empty()) {
            ++p.failed;
            p.failures.push_back(cells_[i].id() + " host " +
                                 std::to_string(h) + ": " + why);
          }
        }

        add_sched_stats(fr.stats, &c);
        c["traffic.issued"] += static_cast<double>(fr.issued);
        c["traffic.completed"] += static_cast<double>(fr.completed);
        c["traffic.shed_frac"] += static_cast<double>(fr.shed);
        p.work_units += static_cast<double>(fr.completed);

        exp::CellOutcome o;
        o.cell = cells_[i];
        o.run.completed = true;  // open loop: the window always closes
        o.run.exec_time = fc.warmup + fc.window + fc.drain;
        o.run.stats = fr.stats;
        o.attempts = 1;  // no retries: see kNoRetries
        o.final_deadline = o.run.exec_time;
        o.set("offered_ops_s", pt.offered_ops_s);
        o.set("achieved_ops_s", pt.achieved_ops_s);
        o.set("shed_pct", pt.shed_fraction * 100.0);
        o.set("mean_us", pt.mean_us);
        o.set("p50_us", pt.p50_us);
        o.set("p99_us", pt.p99_us);
        o.set("p999_us", pt.p999_us);
        o.set("queue_p99_us", pt.queue_p99_us);
        o.set("service_p99_us", pt.service_p99_us);
        o.set("sched_delay_p99_us", pt.sched_delay_p99_us);
        o.set("blame_requests", static_cast<double>(fr.blame.requests));
        outcomes.push_back(std::move(o));
      }
      set_precision(tp, fp, &c);
      const double issued = c["traffic.issued"];
      c["traffic.shed_frac"] = issued > 0 ? c["traffic.shed_frac"] / issued : 0;
      finish_doc(log, top, run, "perfbench_" + name_, seed_, sweep_,
                 std::move(outcomes), &p);
    }
    p.digest = fnv1a(p.digest, docs);
    return p;
  }

 private:
  std::string name_;
  bool obs_;
  std::size_t jobs_;
  std::uint64_t seed_;
  exp::Sweep sweep_;
  std::vector<exp::Cell> cells_;
  std::vector<traffic::FleetConfig> fleets_;
  /// Connection records for the set-up replica's hosts.
  std::vector<traffic::Connection> conns_;
};


// --- Figure 9 suite --------------------------------------------------------

class SuiteWorkload final : public Workload {
 public:
  explicit SuiteWorkload(std::uint64_t seed)
      : seed_(seed), names_(workloads::fig9_benchmarks()), sweep_("vb_blocking") {
    std::vector<std::string> labels;
    for (const SuiteConfig& c : kSuiteConfigs) labels.emplace_back(c.label);
    metrics::RunConfig base;
    base.cpus = 8;
    base.sockets = 2;
    base.seed = seed;
    base.deadline = 600_s;
    sweep_.base(base).axis("benchmark", names_).axis(
        "config", labels, [](metrics::RunConfig& rc, std::size_t ci) {
          rc.smt = kSuiteConfigs[ci].smt;
          rc.features = kSuiteConfigs[ci].optimized
                            ? core::Features::optimized()
                            : core::Features::vanilla();
        });
    cells_ = sweep_.expand();
    for (exp::Cell& c : cells_) {
      c.cfg.ref_footprint = spec(c).ref_footprint();
    }
  }

  std::size_t threads() const override { return 1; }

  std::vector<std::pair<std::string, std::string>> dropped() const override {
    return {
        {"epoll.instance_locks", "obs is off in this workload: registry "
                                 "counters are not snapshotted (the suite "
                                 "opens no epoll instance)"},
        {"epoll.instance_locks_contended", "as epoll.instance_locks"},
        {"traffic.parallel_efficiency", "no fleet: cells run one at a time"},
        {"exp.attempts_per_cell", kNoRetries},
    };
  }

  Setup setup(SpanLog& log, int run) override {
    Setup s;
    for (const exp::Cell& c : cells_) {
      kern::KernelConfig kc;
      s.total_ms += timed(log, "metrics.make_kernel_config", -1, run,
                          [&] { kc = metrics::make_kernel_config(c.cfg); });
      std::optional<kern::Kernel> k;
      s.kern_construct_ms +=
          timed(log, "kern.construct", -1, run, [&] { k.emplace(kc); });
      s.spawn_ms += timed(log, "workloads.spawn", -1, run, [&] {
        workloads::spawn_benchmark(*k, spec(c), threads_of(c), seed_,
                                   kSuiteScale);
      });
    }
    s.total_ms += s.kern_construct_ms + s.spawn_ms;
    return s;
  }

  Pass pass(SpanLog& log, int run) override {
    Pass p;
    Counts& counts = p.counts;
    std::vector<exp::CellOutcome> outcomes;
    {
      ScopedSpan pass_span(log, "bench.pass", -1, run);
      const int top = pass_span.id();
      double events = 0, windows = 0, tp = 0, fp = 0;
      for (const exp::Cell& c : cells_) {
        const double c0 = cpu_ms(CLOCK_THREAD_CPUTIME_ID);
        metrics::RunResult r;
        {
          kern::KernelConfig kc;
          timed(log, "metrics.make_kernel_config", top, run,
                [&] { kc = metrics::make_kernel_config(c.cfg); });
          std::optional<kern::Kernel> k;
          timed(log, "kern.construct", top, run, [&] { k.emplace(kc); });
          timed(log, "workloads.spawn", top, run, [&] {
            workloads::spawn_benchmark(*k, spec(c), threads_of(c), seed_,
                                       kSuiteScale);
          });
          timed(log, "kern.run_to_exit", top, run,
                [&] { r.completed = k->run_to_exit(c.cfg.deadline); });
          // The same read-out as metrics::run_experiment.
          r.exec_time = r.completed ? k->last_exit_time() : k->now();
          r.utilization_percent = k->cpu_utilization_percent();
          r.spin_busy = k->total_spin_busy();
          r.stats = k->stats();
          r.bwd = k->bwd_accuracy();
          r.pinned_violation = k->pinned_violation();
          r.wakeup_latency = k->wakeup_latency();
          events += static_cast<double>(k->engine().events_fired());
        }
        ++p.attempted;
        p.run_ms.push_back(cpu_ms(CLOCK_THREAD_CPUTIME_ID) - c0);
        if (!r.completed || r.pinned_violation) {
          ++p.failed;
          p.failures.push_back(c.id() + (r.completed
                                             ? ": pinned-task violation"
                                             : ": incomplete at deadline"));
        }
        add_sched_stats(r.stats, &counts);
        windows += static_cast<double>(r.bwd.windows);
        tp += static_cast<double>(r.bwd.tp);
        fp += static_cast<double>(r.bwd.fp);
        const int rounds = std::max(
            1, static_cast<int>(spec(c).rounds * kSuiteScale));
        p.work_units += static_cast<double>(rounds) * threads_of(c);

        exp::CellOutcome o;
        o.cell = c;
        o.run = std::move(r);
        o.attempts = 1;  // no retries: see kNoRetries
        o.final_deadline = c.cfg.deadline;
        outcomes.push_back(std::move(o));
      }
      counts["sim.events"] = events;
      counts["hw.sampled_windows"] = windows;
      set_precision(tp, fp, &counts);
      finish_doc(log, top, run, "perfbench_sync_suite", seed_, sweep_,
                 std::move(outcomes), &p);
    }
    return p;
  }

 private:
  const workloads::BenchmarkSpec& spec(const exp::Cell& c) const {
    return workloads::find_benchmark(names_[c.at(0)]);
  }
  static int threads_of(const exp::Cell& c) {
    return kSuiteConfigs[c.at(1)].threads;
  }

  std::uint64_t seed_;
  std::vector<std::string> names_;
  exp::Sweep sweep_;
  std::vector<exp::Cell> cells_;
};

// --- reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

/// Peak resident set of this process image, from VmHWM. (getrusage's
/// ru_maxrss would also count the parent's footprint, which survives exec.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Summed span durations of one name, per traced pass.
using Busy = std::map<std::string, double>;

struct TracedView {
  std::vector<Busy> busy_ms;     ///< per traced pass, by span name
  std::vector<Busy> self_ms;     ///< per traced pass, by layer
  std::vector<double> host_ms;   ///< every kern.host_run span
  std::vector<perfbench::SpanStat> table;  ///< all traced passes
  std::vector<perfbench::SpanStat> setup_table;  ///< all set-up repetitions
  std::size_t passes = 0;
};

TracedView traced_view(const std::vector<perfbench::Span>& spans,
                       const std::vector<int>& traced_runs) {
  TracedView v;
  v.passes = traced_runs.size();
  std::map<int, std::size_t> slot;
  for (const int r : traced_runs) slot.emplace(r, slot.size());
  v.busy_ms.resize(slot.size());
  v.self_ms.resize(slot.size());
  const std::vector<std::int64_t> self = perfbench::self_ns(spans);
  std::map<std::string, perfbench::SpanStat> table, setup_table;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    if (s.end_ns < 0) continue;
    const double d = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    const double self_ms = static_cast<double>(self[i]) / 1e6;
    const auto it = slot.find(s.run);
    if (s.run >= 0 && it == slot.end()) continue;  // an untraced pass
    perfbench::SpanStat& st = (s.run < 0 ? setup_table : table)[s.name];
    st.name = s.name;
    ++st.count;
    st.busy_ms += d;
    st.self_ms += self_ms;
    if (s.run < 0) continue;
    v.busy_ms[it->second][s.name] += d;
    v.self_ms[it->second][s.name.substr(0, s.name.find('.'))] += self_ms;
    if (s.name == "kern.host_run") v.host_ms.push_back(d);
  }
  for (auto& [name, st] : table) v.table.push_back(st);
  for (auto& [name, st] : setup_table) v.setup_table.push_back(st);
  return v;
}

double median_of(const std::vector<Busy>& per_pass, const std::string& key) {
  std::vector<double> xs;
  for (const Busy& b : per_pass) {
    const auto it = b.find(key);
    xs.push_back(it == b.end() ? 0.0 : it->second);
  }
  return median(xs);
}

const char* const kLayers[] = {"bench", "metrics", "kern", "workloads",
                               "traffic", "obs", "exp"};

std::vector<Metric> per_layer_metrics(const Workload& w, const Counts& counts,
                                      const std::vector<Setup>& setups,
                                      const TracedView& tv,
                                      double trace_overhead) {
  std::vector<Metric> m;
  const auto med_setup = [&](double Setup::*f) {
    std::vector<double> xs;
    for (const Setup& s : setups) xs.push_back(s.*f);
    return median(xs);
  };
  const auto count = [&](const char* n) { return counts.at(n); };
  const double run_to_exit_ms = median_of(tv.busy_ms, "kern.run_to_exit");
  const double host_run_ms = median_of(tv.busy_ms, "kern.host_run");
  const double kern_run_ms = run_to_exit_ms + host_run_ms;
  const double switches = count("kern.context_switches");
  const double events = count("sim.events");
  const double fleet_ms = median_of(tv.busy_ms, "traffic.fleet_run");

  m.push_back({"sim.events", events, "count"});
  m.push_back({"sim.ns_per_event",
               events > 0 ? run_to_exit_ms * 1e6 / events : 0.0, "ns"});
  m.push_back({"kern.construct_ms", med_setup(&Setup::kern_construct_ms), "ms"});
  m.push_back({"kern.run_ms", kern_run_ms, "ms"});
  m.push_back({"kern.context_switches", switches, "count"});
  m.push_back({"kern.wakeups", count("kern.wakeups"), "count"});
  m.push_back({"kern.ns_per_switch",
               switches > 0 ? kern_run_ms * 1e6 / switches : 0.0, "ns"});
  for (const char* n :
       {"sched.migrations_in_node", "sched.migrations_cross_node",
        "sched.wakeup_migrations", "sched.involuntary_switches",
        "futex.sleeps", "futex.wakes", "epoll.instance_locks",
        "epoll.instance_locks_contended", "core.vb_parks", "core.vb_unparks",
        "core.vb_fallback_vanilla", "core.bwd_timer_fires",
        "core.bwd_detections", "hw.sampled_windows"}) {
    m.push_back({n, count(n), "count"});
  }
  m.push_back({"core.bwd_precision", count("core.bwd_precision"), "ratio"});
  m.push_back({"workloads.spawn_ms", med_setup(&Setup::spawn_ms), "ms"});
  m.push_back({"traffic.fleet_construct_ms",
               med_setup(&Setup::fleet_construct_ms), "ms"});
  m.push_back({"traffic.host_run_ms.p50", median(tv.host_ms), "ms"});
  m.push_back({"traffic.issued", count("traffic.issued"), "count"});
  m.push_back({"traffic.completed", count("traffic.completed"), "count"});
  m.push_back({"traffic.shed_frac", count("traffic.shed_frac"), "ratio"});
  m.push_back({"traffic.summarize_ms",
               median_of(tv.busy_ms, "traffic.summarize"), "ms"});
  m.push_back({"traffic.parallel_efficiency",
               fleet_ms > 0 ? host_run_ms /
                                  (fleet_ms * static_cast<double>(w.threads()))
                            : 0.0,
               "ratio"});
  m.push_back({"obs.fleet_render_ms",
               median_of(tv.busy_ms, "obs.render_fleet"), "ms"});
  m.push_back({"obs.fleet_doc_bytes", count("obs.fleet_doc_bytes"), "bytes"});
  for (const char* n : {"obs.watchdog_checks", "obs.watchdog_violations",
                        "obs.taskstats_tasks", "exp.cells"}) {
    m.push_back({n, count(n), "count"});
  }
  m.push_back({"exp.attempts_per_cell", count("exp.attempts_per_cell"),
               "ratio"});
  m.push_back({"exp.render_ms", median_of(tv.busy_ms, "exp.render"), "ms"});
  for (const char* layer : kLayers) {
    m.push_back({std::string("self_ms.") + layer,
                 median_of(tv.self_ms, layer), "ms"});
  }
  m.push_back({"trace_overhead", trace_overhead, "ratio"});
  return m;
}

std::string layer_table(const Args& a, const Workload& w, const TracedView& tv,
                        std::size_t setup_reps,
                        const std::vector<Metric>& metrics) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "== spans: %s seed=%llu, per traced pass (%zu passes) ==\n"
                "%-28s %10s %12s %12s\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                tv.passes, "span", "count", "busy_ms", "self_ms");
  out += line;
  const double n = tv.passes > 0 ? static_cast<double>(tv.passes) : 1.0;
  for (const perfbench::SpanStat& s : tv.table) {
    std::snprintf(line, sizeof(line), "%-28s %10.1f %12.3f %12.3f\n",
                  s.name.c_str(), static_cast<double>(s.count) / n,
                  s.busy_ms / n, s.self_ms / n);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "== set-up spans, per repetition (%zu repetitions) ==\n",
                setup_reps);
  out += line;
  const double reps = static_cast<double>(std::max<std::size_t>(setup_reps, 1));
  for (const perfbench::SpanStat& s : tv.setup_table) {
    std::snprintf(line, sizeof(line), "%-28s %10.1f %12.3f %12.3f\n",
                  s.name.c_str(), static_cast<double>(s.count) / reps,
                  s.busy_ms / reps, s.self_ms / reps);
    out += line;
  }
  std::snprintf(line, sizeof(line), "== per-layer metrics: %s ==\n",
                a.workload.c_str());
  out += line;
  const auto dropped = w.dropped();
  for (const Metric& m : metrics) {
    std::snprintf(line, sizeof(line), "%-32s %16.6g %-6s", m.name.c_str(),
                  m.value, m.unit);
    out += line;
    for (const auto& [name, why] : dropped) {
      if (name == m.name) out += " dropped: " + why;
    }
    out += "\n";
  }
  return out;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "serve_vanilla") {
    return std::make_unique<ServeWorkload>(name, false, 1, seed);
  }
  if (name == "serve_optimized_obs") {
    return std::make_unique<ServeWorkload>(name, true, kServeObsJobs, seed);
  }
  return std::make_unique<SuiteWorkload>(seed);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (const int rc = parse_args(argc, argv, &a); rc != 0) return rc;
  std::unique_ptr<Workload> w = make_workload(a.workload, a.seed);
  SpanLog log(a.trace);

  std::vector<Setup> setups;
  // Measurement window. A traced run alternates untraced and traced passes so
  // both see the same host conditions; the ratio is the tracing overhead.
  std::vector<Pass> plain, traced;
  std::vector<int> traced_runs;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(a.seconds));
  for (int run = 0;
       Clock::now() < deadline || plain.empty() || (a.trace && traced.empty());
       ++run) {
    log.set_enabled(a.trace);
    for (int i = 0; i < kSetupRepsPerPass; ++i) {
      setups.push_back(w->setup(log, -1 - static_cast<int>(setups.size())));
    }
    const bool traced_pass = a.trace && run % 2 == 1;
    log.set_enabled(traced_pass);
    const auto t0 = Clock::now();
    const double cpu0 = cpu_ms(CLOCK_PROCESS_CPUTIME_ID);
    Pass p = w->pass(log, run);
    p.wall_s = ms_between(t0, Clock::now()) / 1e3;
    p.cpu_s = (cpu_ms(CLOCK_PROCESS_CPUTIME_ID) - cpu0) / 1e3;
    if (traced_pass) {
      traced.push_back(std::move(p));
      traced_runs.push_back(run);
    } else {
      plain.push_back(std::move(p));
    }
  }
  log.set_enabled(a.trace);
  while (setups.size() < kMinSetupReps) {
    setups.push_back(w->setup(log, -1 - static_cast<int>(setups.size())));
  }

  // Checks: every machine run passed, and every pass reproduced the first
  // pass's simulated results and per-layer counts exactly.
  std::uint64_t attempted = 0, failed = 0;
  bool repeat = true;
  const Pass& first = plain.front();
  for (const std::vector<Pass>* ps : {&plain, &traced}) {
    for (const Pass& p : *ps) {
      attempted += p.attempted;
      failed += p.failed;
      for (const std::string& f : p.failures) {
        std::fprintf(stderr, "check failed: %s\n", f.c_str());
      }
      if (p.digest != first.digest || p.counts != first.counts) repeat = false;
    }
  }
  if (!repeat) {
    std::fprintf(stderr, "check failed: passes of one seed disagree on "
                         "simulated results or per-layer counts\n");
  }
  const bool correct = failed == 0 && repeat;
  std::printf("digest %s seed=%llu %016llx\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(first.digest));

  std::vector<double> walls, run_ms, sps, us_per_req;
  for (const Pass& p : plain) {
    walls.push_back(p.wall_s);
    run_ms.insert(run_ms.end(), p.run_ms.begin(), p.run_ms.end());
    sps.push_back(p.counts.at("kern.context_switches") / p.cpu_s);
    us_per_req.push_back(p.work_units > 0 ? p.cpu_s * 1e6 / p.work_units
                                          : 0.0);
  }
  std::vector<Metric> metrics;
  if (!a.trace) {
    std::vector<double> setup_s;
    for (const Setup& s : setups) setup_s.push_back(s.total_ms / 1e3);
    const Tail tail = tail_of(run_ms);
    metrics = {
        {"wall_s", median(walls), "s"},
        {"setup_s", median(setup_s), "s"},
        {"run_ms.p50", median(run_ms), "ms"},
        {"run_ms.tail", tail.value, "ms"},
        {"switches_per_s", median(sps), "1/s"},
        {"host_us_per_request", median(us_per_req), "us"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"ok_frac",
         attempted > 0 ? 1.0 - static_cast<double>(failed) /
                                   static_cast<double>(attempted)
                       : 0.0,
         "ratio"},
    };
    for (const Metric& m : metrics) {
      std::printf("%-20s %14.6g %s", m.name.c_str(), m.value, m.unit);
      if (m.name == "run_ms.tail") {
        std::printf("  (p%.2f of %zu machine runs)", tail.percentile,
                    run_ms.size());
      }
      if (m.name == "ok_frac") {
        std::printf("  (failed_frac %g: %llu of %llu runs)", 1.0 - m.value,
                    static_cast<unsigned long long>(failed),
                    static_cast<unsigned long long>(attempted));
      }
      std::printf("\n");
    }
    std::printf("passes %zu, machine runs per pass %zu\n", plain.size(),
                first.run_ms.size());
  } else {
    std::vector<double> traced_walls;
    for (const Pass& p : traced) traced_walls.push_back(p.wall_s);
    const TracedView tv = traced_view(log.spans(), traced_runs);
    metrics = per_layer_metrics(*w, first.counts, setups, tv,
                                median(traced_walls) / median(walls));
    const std::string table = layer_table(a, *w, tv, setups.size(), metrics);
    std::fputs(table.c_str(), stdout);

    std::error_code ec;
    std::filesystem::create_directories(a.out, ec);
    const std::string stem = a.out + "/" + a.workload + "-seed" +
                             std::to_string(a.seed);
    std::string err;
    bool wrote = !ec && log.write_jsonl(stem + ".spans.jsonl", &err);
    if (wrote) {
      std::FILE* f = std::fopen((stem + ".layers.txt").c_str(), "w");
      wrote = f != nullptr && std::fputs(table.c_str(), f) >= 0;
      if (f != nullptr) wrote = std::fclose(f) == 0 && wrote;
    }
    if (!wrote) {
      std::fprintf(stderr, "perfbench_driver: writing %s.* failed %s\n",
                   stem.c_str(), err.c_str());
      print_result(false, attempted, failed, metrics);
      return 1;
    }
    std::printf("spans: wrote %s.spans.jsonl and %s.layers.txt\n",
                stem.c_str(), stem.c_str());
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
