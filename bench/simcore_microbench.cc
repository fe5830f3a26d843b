// Host-performance microbenchmarks of the simulator machinery itself:
// event-engine throughput, red-black-tree churn, end-to-end simulated
// context-switch rate, and futex round trips. These guard against simulator
// regressions that would make the figure benches impractically slow.
//
// The JSON cells carry only deterministic simulator counters (items
// processed, context switches, the engine's heap counts); the host-side
// ns/op timings are volatile and therefore reported in the document's `meta`
// block.
#include <chrono>
#include <fstream>
#include <optional>
#include <sstream>

#include "bench_util.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "kern/kernel.h"
#include "obs/fleet_agg.h"
#include "runtime/sim_thread.h"
#include "sched/entity.h"
#include "sched/rbtree.h"
#include "sim/engine.h"

using namespace eo;

namespace {

struct MicroResult {
  std::uint64_t items = 0;          // deterministic work count per rep
  std::uint64_t sim_switches = 0;   // deterministic, kernel benches only
  /// Heap work of the rep's engine; engine and kernel_context_switches rows.
  std::optional<sim::Engine::Counts> engine;
};

MicroResult engine_schedule_fire() {
  sim::Engine e;
  int sink = 0;
  for (int i = 0; i < 1000; ++i) {
    e.schedule_at(i, [&sink] { ++sink; });
  }
  e.run();
  return {static_cast<std::uint64_t>(sink), 0, e.counts()};
}

MicroResult engine_schedule_cancel() {
  // Half the events are canceled before the run: exercises the O(1)
  // generation-checked cancel path plus free-list slot recycling.
  sim::Engine e;
  int sink = 0;
  std::vector<sim::EventId> ids;
  ids.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(e.schedule_at(i, [&sink] { ++sink; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) e.cancel(ids[i]);
  e.run();
  return {static_cast<std::uint64_t>(ids.size()), 0, e.counts()};
}

MicroResult engine_periodic_timer() {
  // A tight periodic timer rides the in-place re-arm path: no slot churn,
  // no callback reconstruction per fire.
  sim::Engine e;
  std::uint64_t sink = 0;
  const sim::EventId id = e.schedule_periodic(1, 1, [&sink] { ++sink; });
  e.run_until(1000);
  e.cancel(id);
  return {sink, 0, e.counts()};
}

MicroResult engine_hold() {
  // The shape of a busy kernel run: 32 events pending plus one periodic
  // tick, and every one-shot fire arms one successor at now + a seeded
  // delay, so each fire's pop meets its callback's push. Items = fires.
  struct Hold {
    sim::Engine e;
    Rng rng{1};
    void arm() {
      e.schedule_after(static_cast<SimDuration>(1 + rng.next_below(1000)),
                       [this] { arm(); });
    }
  } h;
  for (int i = 0; i < 32; ++i) h.arm();
  std::uint64_t ticks = 0;
  const sim::EventId tick =
      h.e.schedule_periodic(100, 100, [&ticks] { ++ticks; });
  h.e.run_until(16'000);
  h.e.cancel(tick);
  return {h.e.events_fired(), 0, h.e.counts()};
}

MicroResult rbtree_insert_erase() {
  struct Item {
    sched::RbNode node;
    long key;
  };
  struct Less {
    bool operator()(const Item& a, const Item& b) const {
      return a.key < b.key;
    }
  };
  std::vector<Item> items(256);
  Rng rng(1);
  for (auto& i : items) i.key = static_cast<long>(rng.next_below(10000));
  sched::RbTree<Item, &Item::node, Less> tree;
  for (auto& i : items) tree.insert(&i);
  std::uint64_t n = 0;
  while (tree.leftmost() != nullptr) {
    tree.erase(tree.leftmost());
    ++n;
  }
  return {n, 0, {}};
}

MicroResult kernel_context_switches() {
  kern::KernelConfig c;
  c.topo = hw::Topology::make_cores(1, 1);
  kern::Kernel k(c);
  for (int i = 0; i < 4; ++i) {
    runtime::spawn(k, "t", [](runtime::Env env) -> runtime::SimThread {
      for (int r = 0; r < 50; ++r) {
        co_await env.compute(10_us);
        co_await env.yield();
      }
      co_return;
    });
  }
  k.run_to_exit(10_s);
  return {200, k.stats().context_switches, k.engine().counts()};
}

MicroResult obs_sample_tick() {
  // Per-tick cost of the obs sampler: a 4-core kernel with a handful of
  // compute/yield threads sampled every 10 simulated microseconds. Items =
  // sampler ticks, so ns/item is the host cost of one full sample frame
  // (collect + ring push + watchdog cross-check).
  kern::KernelConfig c;
  c.topo = hw::Topology::make_cores(4, 1);
  c.metrics.enabled = true;
  c.metrics.interval = 10_us;
  kern::Kernel k(c);
  for (int i = 0; i < 8; ++i) {
    runtime::spawn(k, "t", [](runtime::Env env) -> runtime::SimThread {
      for (int r = 0; r < 50; ++r) {
        co_await env.compute(20_us);
        co_await env.yield();
      }
      co_return;
    });
  }
  k.run_to_exit(10_s);
  return {k.sampler().ticks(), k.stats().context_switches, {}};
}

MicroResult obs_fleet_merge() {
  // Host cost of folding a full 32-host fleet's telemetry into one
  // eo-metrics-fleet document (FleetAggregator::add_host x32 + finish()).
  // Items = hosts merged, so ns/item is the per-host share of the merge.
  // Inputs are synthetic but sized like a real serve-host snapshot: 6
  // counters, 4 gauges, 4 histograms with thousands of observations, and a
  // retained 8-core sample ring. Built once; every rep re-runs the merge.
  struct HostInput {
    obs::MetricsDoc doc;
    std::vector<Histogram> hists;
  };
  static const std::vector<HostInput> inputs = [] {
    std::vector<HostInput> v(32);
    Rng rng(7);
    for (int h = 0; h < 32; ++h) {
      HostInput& in = v[static_cast<std::size_t>(h)];
      in.doc.n_cores = 8;
      in.doc.interval = 1_ms;
      in.doc.ticks = 55;
      for (int c = 0; c < 6; ++c) {
        in.doc.counters.push_back(
            {"ctr" + std::to_string(c), rng.next_below(1 << 20)});
      }
      for (int g = 0; g < 4; ++g) {
        in.doc.gauges.push_back(
            {"gauge" + std::to_string(g),
             static_cast<std::int64_t>(rng.next_below(256))});
      }
      in.doc.core_series.resize(55 * 8);
      for (auto& cs : in.doc.core_series) {
        cs.rq_depth = static_cast<std::int32_t>(rng.next_below(16));
      }
      in.doc.watchdog_checks = 55;
      in.hists.resize(4);
      for (auto& hist : in.hists) {
        for (int i = 0; i < 4096; ++i) {
          hist.add(static_cast<std::int64_t>(1000 + rng.next_below(1 << 22)));
        }
      }
    }
    return v;
  }();
  obs::FleetAggregator agg;
  for (int h = 0; h < 32; ++h) {
    const HostInput& in = inputs[static_cast<std::size_t>(h)];
    obs::FleetHostSample s;
    s.host = h;
    s.doc = &in.doc;
    for (std::size_t i = 0; i < in.hists.size(); ++i) {
      s.histograms.emplace_back("hist" + std::to_string(i), &in.hists[i]);
    }
    s.issued = 1000;
    s.completed = 990;
    s.shed = 10;
    agg.add_host(s);
  }
  const obs::FleetMetricsDoc doc = agg.finish();
  return {static_cast<std::uint64_t>(doc.n_hosts), 0, {}};
}

MicroResult futex_round_trip() {
  kern::KernelConfig c;
  c.topo = hw::Topology::make_cores(2, 1);
  kern::Kernel k(c);
  kern::SimWord* w = k.alloc_word(0);
  runtime::spawn(k, "waiter", [w](runtime::Env env) -> runtime::SimThread {
    for (int r = 0; r < 100; ++r) {
      co_await env.futex_wait(w, 0);
    }
    co_return;
  });
  runtime::spawn(k, "waker", [w](runtime::Env env) -> runtime::SimThread {
    for (int r = 0; r < 100; ++r) {
      co_await env.compute(5_us);
      // Publish before waking so a not-yet-parked waiter sees EWOULDBLOCK
      // instead of sleeping through a lost wake.
      co_await env.store(w, 1);
      co_await env.futex_wake(w, 1);
    }
    co_return;
  });
  k.run_to_exit(10_s);
  return {100, k.stats().context_switches, {}};
}

struct Micro {
  const char* name;
  MicroResult (*fn)();
};

const std::vector<Micro> kMicros = {
    {"engine_schedule_fire", engine_schedule_fire},
    {"engine_schedule_cancel", engine_schedule_cancel},
    {"engine_periodic_timer", engine_periodic_timer},
    {"engine_hold", engine_hold},
    {"rbtree_insert_erase", rbtree_insert_erase},
    {"kernel_context_switches", kernel_context_switches},
    {"futex_round_trip", futex_round_trip},
    {"obs_sample_tick", obs_sample_tick},
    {"obs_fleet_merge", obs_fleet_merge},
};

// engine_schedule_fire ns/item on the reference host immediately before the
// event-engine overhaul (std::function callbacks + unordered_set pending
// tracking), mean of three scale-1.0 runs: 204.8 / 184.7 / 188.8. Kept in
// meta next to the live number so the improvement is visible in the JSON.
constexpr double kPreOverhaulEngineScheduleFireNs = 192.8;
// Pre-flattening baselines for the two paths the intrusive-waiter /
// lazy-sampler pass attacked (recorded in BENCH_simcore.json meta next to
// the live numbers, like the engine baseline above).
constexpr double kPreFlattenContextSwitchNs = 554.2;
constexpr double kPreFlattenFutexRoundTripNs = 785.4;

// --gate: hard ns/item ceilings for the simulator hot paths. Reference-host
// numbers at the time the gate was recorded (engine 65, obs tick 550 after
// the unchanged-core watchdog trim; context switches ~190 and futex round
// trips ~330 after the intrusive-waiter-link + lazy-sampler flattening;
// fleet merge ~18500 per host, i.e. ~0.6ms for a full 32-host document —
// far below 1% of any fleet window's host runtime), with headroom so slower
// or noisy CI hosts don't flake; a breach means a real algorithmic
// regression, not scatter.
struct GateLimit {
  const char* name;
  double limit_ns;
};
const std::vector<GateLimit> kGates = {
    {"engine_schedule_fire", 204.0},
    {"kernel_context_switches", 300.0},
    {"futex_round_trip", 450.0},
    {"obs_sample_tick", 1650.0},
    {"obs_fleet_merge", 40000.0},
};

}  // namespace

int main(int argc, char** argv) {
  const bench::CliSpec spec{
      .id = "simcore_microbench",
      .summary = "host-performance microbenchmarks of the simulator core",
      .default_scale = 1.0};
  // --gate and --stamp=<label> are this bench's own flags (the uniform Cli
  // rejects unknown arguments): strip them before parsing. --stamp labels
  // the perf-trajectory history entry recorded on gated runs.
  bool gate = false;
  std::string stamp = "unstamped";
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string a(argv[i]);
    if (a == "--gate") {
      gate = true;
      continue;
    }
    if (a.rfind("--stamp=", 0) == 0) {
      stamp = a.substr(8);
      if (stamp.empty()) stamp = "unstamped";
      continue;
    }
    args.push_back(argv[i]);
  }
  const bench::Cli cli =
      bench::Cli::parse(static_cast<int>(args.size()), args.data(), spec);
  const int reps = std::max(3, static_cast<int>(50 * cli.scale));

  std::vector<std::string> names;
  for (const auto& m : kMicros) names.emplace_back(m.name);
  exp::Sweep sweep("simcore");
  sweep.axis("microbench", names);

  bench::Harness h(cli, spec);
  if (h.listed({&sweep})) return 0;

  bench::print_header("simcore", "simulator-core microbenchmarks");
  // Host ns/item per microbench, collected outside the cells (volatile).
  std::vector<double> host_ns_per_item(kMicros.size(), 0.0);
  const exp::Outcomes& out = h.run(
      sweep, [&](const exp::Cell& cell, const metrics::RunConfig&) {
        const Micro& m = kMicros[cell.at(0)];
        MicroResult last{};
        const auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < reps; ++r) last = m.fn();
        const auto t1 = std::chrono::steady_clock::now();
        const double total_items =
            static_cast<double>(last.items) * static_cast<double>(reps);
        host_ns_per_item[cell.at(0)] =
            total_items > 0
                ? static_cast<double>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          t1 - t0)
                          .count()) /
                      total_items
                : 0.0;
        exp::CellRun res;
        res.run.completed = true;
        res.set("items_per_rep", static_cast<double>(last.items))
            .set("reps", static_cast<double>(reps))
            .set("sim_context_switches",
                 static_cast<double>(last.sim_switches));
        if (const auto& c = last.engine) {
          res.set("engine_heap_pushes", static_cast<double>(c->pushes))
              .set("engine_stale_pops", static_cast<double>(c->stale_pops))
              .set("engine_peak_depth", static_cast<double>(c->peak_depth));
        }
        return res;
      });

  metrics::TablePrinter t(
      {"microbench", "items/rep", "sim CS", "host ns/item"});
  for (std::size_t i = 0; i < kMicros.size(); ++i) {
    const exp::CellOutcome& o = out.at({i});
    if (!o.ran()) continue;
    t.add_row({kMicros[i].name,
               std::to_string(
                   static_cast<std::uint64_t>(o.value("items_per_rep"))),
               std::to_string(static_cast<std::uint64_t>(
                   o.value("sim_context_switches"))),
               metrics::TablePrinter::num(host_ns_per_item[i], 1)});
  }
  t.print();

  exp::ResultDoc& doc = h.doc();
  // Host timings are machine-dependent: meta only, never in the cells.
  for (std::size_t i = 0; i < kMicros.size(); ++i) {
    if (out.at({i}).ran()) {
      doc.set_meta(std::string("host_ns_per_item_") + kMicros[i].name,
                   host_ns_per_item[i]);
    }
  }
  doc.set_meta("baseline_main_ns_per_item_engine_schedule_fire",
               kPreOverhaulEngineScheduleFireNs);
  doc.set_meta("baseline_main_ns_per_item_kernel_context_switches",
               kPreFlattenContextSwitchNs);
  doc.set_meta("baseline_main_ns_per_item_futex_round_trip",
               kPreFlattenFutexRoundTripNs);

  bool gate_ok = true;
  if (gate) {
    for (const GateLimit& gl : kGates) {
      std::size_t idx = kMicros.size();
      for (std::size_t i = 0; i < kMicros.size(); ++i) {
        if (std::string(kMicros[i].name) == gl.name) idx = i;
      }
      if (idx == kMicros.size() || !out.at({idx}).ran()) {
        std::fprintf(stderr, "gate: %s did not run (filtered out?)\n",
                     gl.name);
        gate_ok = false;
        continue;
      }
      const double got = host_ns_per_item[idx];
      const bool ok = got <= gl.limit_ns;
      std::printf("gate: %-26s %8.1f ns/item (limit %.0f) %s\n", gl.name,
                  got, gl.limit_ns, ok ? "OK" : "FAIL");
      gate_ok &= ok;
    }
    if (!gate_ok) {
      std::fprintf(stderr,
                   "gate: simulator hot-path regression (see limits above)\n");
    }
    // Gated runs record a perf-trajectory point under meta.history: prior
    // entries are carried forward from any existing document at --json's
    // path (capped at ResultDoc::kMaxHistory), then this run's gated
    // ns/item numbers are appended, stamped with the revision and --stamp.
    if (!cli.json_path.empty()) {
      std::ifstream prev(cli.json_path, std::ios::binary);
      if (prev) {
        std::ostringstream buf;
        buf << prev.rdbuf();
        for (auto& e : exp::parse_history(buf.str())) {
          doc.add_history(std::move(e));
        }
      }
      exp::PerfHistoryEntry e;
      e.git_rev = exp::current_git_rev();
      e.stamp = stamp;
      for (const GateLimit& gl : kGates) {
        for (std::size_t i = 0; i < kMicros.size(); ++i) {
          if (std::string(kMicros[i].name) == gl.name && out.at({i}).ran()) {
            e.ns_per_item.emplace_back(gl.name, host_ns_per_item[i]);
          }
        }
      }
      doc.add_history(std::move(e));
    }
  }
  const int code = h.finish();
  return gate_ok ? code : 1;
}
