// Figure 15: comparison with SHFLLOCK and the spin-then-park locks (Mutexee,
// MCS-TP) on five lock-intensive benchmark configurations at an
// oversubscription ratio of 4 (32 threads, 8 cores). The pthreads primitives
// are swapped for each library lock (all on the vanilla kernel); "optimized"
// is unmodified pthreads on the VB+BWD kernel.
// Expected: the spin-then-park locks still collapse (they spin away slices
// and park through the vanilla futex); SHFLLOCK is no better (bulk wakeups,
// NUMA-preferential wakes); the kernel-side fix wins by up to ~5x.
#include "bench_util.h"
#include "locks/blocking_locks.h"
#include "runtime/sim_thread.h"
#include "workloads/suite.h"

using namespace eo;
using runtime::Env;
using runtime::SimThread;

namespace {

/// Lock-substituted benchmark body: per round, compute a short parallel
/// chunk then run a critical section under the library lock. The grain is
/// finer than the benchmark's own (the paper replaced *all* pthread
/// primitives, making the lock the bottleneck at ratio 4).
void spawn_locked_benchmark(kern::Kernel& k,
                            const workloads::BenchmarkSpec& spec,
                            int n_threads,
                            std::shared_ptr<locks::BlockingLock> lock,
                            double scale) {
  const int rounds = std::max(
      1, static_cast<int>(8 * spec.rounds * scale));
  const SimDuration chunk = std::max<SimDuration>(
      1000, spec.interval * spec.opt_threads / n_threads / 8);
  for (int i = 0; i < n_threads; ++i) {
    runtime::spawn(
        k, spec.name + "-" + std::to_string(i),
        [lock, i, rounds, chunk](Env env) -> SimThread {
          for (int r = 0; r < rounds; ++r) {
            co_await env.compute(chunk);
            co_await lock->lock(env, i);
            co_await env.compute(3_us);
            co_await lock->unlock(env, i);
          }
          co_return;
        });
  }
}

struct Cfg {
  const char* label;
  locks::BlockingLockKind kind;
  bool optimized;
};

const std::vector<Cfg> kCfgs = {
    {"pthread", locks::BlockingLockKind::kPthreadMutex, false},
    {"mutexee", locks::BlockingLockKind::kMutexee, false},
    {"mcstp", locks::BlockingLockKind::kMcsTp, false},
    {"shfllock", locks::BlockingLockKind::kShflLock, false},
    {"optimized", locks::BlockingLockKind::kPthreadMutex, true},
};

}  // namespace

int main(int argc, char** argv) {
  const bench::CliSpec spec{
      .id = "fig15_shfllock",
      .summary =
          "SHFLLOCK / spin-then-park locks vs our approach, 32T on 8 cores",
      .default_scale = 0.25};
  const bench::Cli cli = bench::Cli::parse(argc, argv, spec);

  const std::vector<std::string> names = {"freqmine", "streamcluster", "lu_cb",
                                          "ocean", "radix"};
  std::vector<std::string> cfg_labels;
  for (const auto& c : kCfgs) cfg_labels.emplace_back(c.label);

  metrics::RunConfig base = cli.run_config();
  base.cpus = 8;
  base.sockets = 2;
  base.deadline = 2000_s;

  exp::Sweep sweep("shfllock");
  sweep.base(base)
      .axis("benchmark", names)
      .axis("lock", cfg_labels,
            [](metrics::RunConfig& rc, std::size_t ci) {
              rc.features = kCfgs[ci].optimized ? core::Features::optimized()
                                                : core::Features::vanilla();
            });

  bench::Harness h(cli, spec);
  if (h.listed({&sweep})) return 0;

  bench::print_header(
      "Figure 15",
      "SHFLLOCK / spin-then-park locks vs our approach, 32T on 8 cores "
      "(normalized to optimized)");
  const exp::Outcomes& out = h.run(
      sweep, [&](const exp::Cell& cell, const metrics::RunConfig& cfg) {
        const auto& bspec = workloads::find_benchmark(names[cell.at(0)]);
        const Cfg& c = kCfgs[cell.at(1)];
        metrics::RunConfig rc = cfg;
        rc.ref_footprint = bspec.ref_footprint();
        return metrics::run_experiment(rc, [&](kern::Kernel& k) {
          auto lock = std::shared_ptr<locks::BlockingLock>(
              locks::make_blocking_lock(c.kind, k, 32));
          spawn_locked_benchmark(k, bspec, 32, std::move(lock), cli.scale);
        });
      });

  std::vector<std::string> headers = {"benchmark"};
  for (const auto& c : kCfgs) headers.emplace_back(c.label);
  metrics::TablePrinter table(headers);
  for (std::size_t bi = 0; bi < names.size(); ++bi) {
    const exp::CellOutcome& opt = out.at({bi, kCfgs.size() - 1});
    if (!opt.ran()) continue;
    const double norm = opt.ms();  // normalized to optimized
    std::vector<std::string> row = {names[bi]};
    for (std::size_t ci = 0; ci < kCfgs.size(); ++ci) {
      const exp::CellOutcome& o = out.at({bi, ci});
      row.push_back(o.ran() ? metrics::TablePrinter::num(o.ms() / norm) : "-");
    }
    table.add_row(row);
  }
  table.print();

  return h.finish();
}
