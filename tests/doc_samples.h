// Real documents of every kind the validators check, shared by the
// validator mutation test and the JSON fuzz test: the checked-in result
// goldens, and the eo-metrics, eo-metrics-fleet and Chrome-trace documents of
// one small kernel run.
#pragma once

#include <fstream>
#include <sstream>
#include <string>

#include "metrics/experiment.h"
#include "obs/export.h"
#include "obs/fleet_agg.h"
#include "runtime/sim_thread.h"

namespace eo::test {

/// The text of `tests/golden/<name>`; empty when the file is missing.
inline std::string golden_text(const std::string& name) {
  std::ifstream f(std::string(EO_GOLDEN_DIR) + "/" + name);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// One small run that yields all three kernel documents: a futex ping-pong
/// next to a compute+yield thread on two cores, with telemetry (short
/// sampling interval), per-task accounting and tracing on.
inline const metrics::RunResult& small_run() {
  static const metrics::RunResult r = [] {
    metrics::RunConfig rc;
    rc.cpus = 2;
    rc.sockets = 1;
    rc.features = core::Features::optimized();
    rc.deadline = 1_s;
    rc.metrics.enabled = true;
    rc.metrics.interval = 50_us;
    rc.taskstats = true;
    rc.trace.enabled = true;
    return metrics::run_experiment(rc, [](kern::Kernel& k) {
      kern::SimWord* a = k.alloc_word(0);
      kern::SimWord* b = k.alloc_word(0);
      runtime::spawn(k, "waiter",
                     [a, b](runtime::Env env) -> runtime::SimThread {
                       for (int r = 0; r < 4; ++r) {
                         co_await env.futex_wait(a, 0);
                         co_await env.store(a, 0);
                         co_await env.store(b, 1);
                         co_await env.futex_wake(b, 1);
                       }
                       co_return;
                     });
      runtime::spawn(k, "waker",
                     [a, b](runtime::Env env) -> runtime::SimThread {
                       for (int r = 0; r < 4; ++r) {
                         co_await env.compute(20_us);
                         co_await env.store(a, 1);
                         co_await env.futex_wake(a, 1);
                         co_await env.futex_wait(b, 0);
                         co_await env.store(b, 0);
                       }
                       co_return;
                     });
      runtime::spawn(k, "spin", [](runtime::Env env) -> runtime::SimThread {
        for (int r = 0; r < 4; ++r) {
          co_await env.compute(30_us);
          co_await env.yield();
        }
        co_return;
      });
    });
  }();
  return r;
}

/// The eo-metrics-fleet document of two copies of small_run(), host 1 with
/// one injected watchdog violation (so `watchdog.records` is not empty).
inline std::string fleet_text() {
  const metrics::RunResult& r = small_run();
  obs::MetricsDoc host1 = *r.metrics;
  host1.watchdog_violations = 1;
  host1.violation_records.push_back({/*ts=*/42, "affinity", "injected"});
  obs::FleetAggregator agg;
  for (int h = 0; h < 2; ++h) {
    obs::FleetHostSample s;
    s.host = h;
    s.doc = h == 0 ? r.metrics.get() : &host1;
    s.histograms.emplace_back("kern.wakeup_latency", &r.wakeup_latency);
    s.issued = 10;
    s.completed = 9;
    s.shed = 1;
    agg.add_host(s);
  }
  return obs::render_fleet(agg.finish(), "json");
}

}  // namespace eo::test
