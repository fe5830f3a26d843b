// Property tests of scheduler fairness and conservation invariants, swept
// over thread and core counts with parameterized gtest.
#include <gtest/gtest.h>

#include "metrics/experiment.h"
#include "runtime/sim_thread.h"

namespace eo {
namespace {

using runtime::Env;
using runtime::SimThread;

class FairnessSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // cores, threads

TEST_P(FairnessSweep, CpuTimeSharedFairly) {
  const auto [cores, threads] = GetParam();
  kern::KernelConfig kc;
  kc.topo = hw::Topology::make_cores(cores, cores > 4 ? 2 : 1);
  kern::Kernel k(kc);
  const SimDuration horizon = 200_ms;
  for (int i = 0; i < threads; ++i) {
    runtime::spawn(k, "t" + std::to_string(i), [horizon](Env env) -> SimThread {
      // Run forever-ish; the test stops at the horizon.
      while (env.now() < horizon * 2) co_await env.compute(1_ms);
      co_return;
    });
  }
  k.run_until(horizon);
  SimDuration min_cpu = horizon, max_cpu = 0, total = 0;
  for (const auto& t : k.tasks()) {
    const SimDuration cpu =
        t->delay.snapshot(k.now())[obs::TaskDelayState::kOncpu];
    min_cpu = std::min(min_cpu, cpu);
    max_cpu = std::max(max_cpu, cpu);
    total += cpu;
  }
  // Fairness: no compute-bound thread gets less than 60% of its fair share
  // or more than ~1.7x of it.
  const double fair = static_cast<double>(horizon) *
                      std::min(cores, threads) / threads;
  EXPECT_GT(static_cast<double>(min_cpu), fair * 0.60);
  EXPECT_LT(static_cast<double>(max_cpu), fair * 1.70);
  // Conservation: total CPU time cannot exceed cores * wall.
  EXPECT_LE(total, horizon * cores);
  // Work conservation: compute-bound tasks keep every core >90% busy.
  if (threads >= cores) {
    EXPECT_GT(static_cast<double>(total),
              static_cast<double>(horizon * cores) * 0.90);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FairnessSweep,
    ::testing::Values(std::make_tuple(1, 2), std::make_tuple(1, 5),
                      std::make_tuple(2, 8), std::make_tuple(4, 4),
                      std::make_tuple(4, 16), std::make_tuple(8, 32)),
    [](const auto& info) {
      return "c" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SchedInvariants, VoluntarySwitchPerYield) {
  kern::KernelConfig kc;
  kc.topo = hw::Topology::make_cores(1, 1);
  kern::Kernel k(kc);
  const int yields = 100;
  for (int i = 0; i < 2; ++i) {
    runtime::spawn(k, "y", [yields](Env env) -> SimThread {
      for (int r = 0; r < yields; ++r) {
        co_await env.compute(10_us);
        co_await env.yield();
      }
      co_return;
    });
  }
  ASSERT_TRUE(k.run_to_exit(10_s));
  EXPECT_GE(k.stats().voluntary_switches, static_cast<std::uint64_t>(2 * yields));
}

TEST(SchedInvariants, SlicePreemptionBoundsMonopolization) {
  // One long-running task plus one periodically waking task on one core:
  // the waker's wakeup latency is bounded by slice mechanics, so it achieves
  // a steady round rate.
  kern::KernelConfig kc;
  kc.topo = hw::Topology::make_cores(1, 1);
  kern::Kernel k(kc);
  runtime::spawn(k, "hog", [](Env env) -> SimThread {
    co_await env.compute(300_ms);
    co_return;
  });
  int rounds = 0;
  runtime::spawn(k, "ticker", [&rounds](Env env) -> SimThread {
    for (int r = 0; r < 50; ++r) {
      co_await env.sleep(1_ms);
      co_await env.compute(100_us);
      ++rounds;
    }
    co_return;
  });
  k.run_until(250_ms);
  EXPECT_GE(rounds, 40) << "waking task starved by the compute hog";
}

}  // namespace
}  // namespace eo
