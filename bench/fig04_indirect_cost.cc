// Figure 4: the indirect cost of context switches. Two threads pinned to one
// core traverse disjoint halves of an array (strong scaling), yielding after
// each pass; the indirect cost per switch is (t_2threads - t_1thread) / #CS.
// Expected shape (paper Section 2.3):
//  * seq-r / seq-rmw: cost climbs from ~512 KB (sub-arrays spill the L2 and
//    the prefetch streams restart cold), reaching ~1 ms/CS at 128 MB;
//  * rnd-r: negative (oversubscription HELPS) at 256-512 KB (sub-array
//    translations fit the L1 dTLB), positive between 1-4 MB (no TLB gain,
//    more L2 misses), negative again beyond 4 MB (sub-arrays fit the STLB);
//  * rnd-rmw: oversubscription always favorable beyond 256 KB (writebacks
//    make the L2 irrelevant).
#include "bench_util.h"
#include "workloads/microbench.h"

using namespace eo;

int main(int argc, char** argv) {
  const bench::CliSpec spec{
      .id = "fig04_indirect_cost",
      .summary =
          "indirect cost per context switch (us), 2 threads vs 1, one core",
      .default_scale = 1.0};
  const bench::Cli cli = bench::Cli::parse(argc, argv, spec);

  const std::vector<std::uint64_t> sizes = {
      64_KiB, 128_KiB, 256_KiB, 512_KiB, 1_MiB, 2_MiB,
      4_MiB,  8_MiB,   16_MiB,  32_MiB,  64_MiB, 128_MiB};
  const std::vector<hw::AccessPattern> patterns = {
      hw::AccessPattern::kSequentialRead, hw::AccessPattern::kSequentialRMW,
      hw::AccessPattern::kRandomRead, hw::AccessPattern::kRandomRMW};

  std::vector<std::string> pattern_labels;
  for (const auto p : patterns) pattern_labels.emplace_back(hw::to_string(p));
  std::vector<std::string> size_labels;
  for (const auto b : sizes) {
    size_labels.push_back(b >= 1_MiB ? std::to_string(b / (1_MiB)) + "MB"
                                     : std::to_string(b / 1024) + "KB");
  }

  metrics::RunConfig base = cli.run_config();
  base.cpus = 1;
  base.sockets = 1;
  base.deadline = 3000_s;

  exp::Sweep sweep("indirect_cost");
  sweep.base(base)
      .axis("pattern", pattern_labels)
      .axis("size", size_labels)
      .axis("threads", {"1T", "2T"});

  bench::Harness h(cli, spec);
  if (h.listed({&sweep})) return 0;

  bench::print_header(
      "Figure 4",
      "indirect cost per context switch (us), 2 threads vs 1, one core");
  exp::Outcomes& out = h.run(
      sweep, [&](const exp::Cell& cell, const metrics::RunConfig& cfg) {
        const auto pattern = patterns[cell.at(0)];
        const auto bytes = sizes[cell.at(1)];
        const int threads = cell.at(2) == 0 ? 1 : 2;

        hw::CacheModel cm{hw::CacheParams{}, hw::TlbParams{}};
        const SimDuration pass =
            workloads::array_pass_duration(cm, pattern, bytes);
        // Enough passes for at least ~100 context switches but bounded total
        // time.
        int passes = static_cast<int>(std::max<SimDuration>(
            1, 400_ms / std::max<SimDuration>(pass, 1)));
        passes = std::max(4, std::min(passes, 4000));
        passes = std::max(2, static_cast<int>(passes * cli.scale));

        metrics::RunConfig rc = cfg;
        rc.ref_footprint = bytes;  // calibration: single-thread full-array rate
        return metrics::run_experiment(rc, [&](kern::Kernel& k) {
          workloads::spawn_array_traversal(k, threads, pattern, bytes, passes);
        });
      });

  // Indirect cost per switch, attached to each 2T cell.
  for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
    for (std::size_t si = 0; si < sizes.size(); ++si) {
      const exp::CellOutcome& r1 = out.at({pi, si, 0});
      exp::CellOutcome& r2 = out.at({pi, si, 1});
      if (!r1.ran() || !r2.ran()) continue;
      const auto switches =
          std::max<std::uint64_t>(1, r2.run.stats.context_switches);
      r2.set("indirect_cost_us",
             to_us(r2.run.exec_time - r1.run.exec_time) /
                 static_cast<double>(switches));
    }
  }

  std::vector<std::string> headers = {"array size"};
  for (const auto& p : pattern_labels) headers.push_back(p);
  metrics::TablePrinter t(headers);
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    std::vector<std::string> row;
    row.push_back(size_labels[si]);
    for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
      const exp::CellOutcome& o = out.at({pi, si, 1});
      row.push_back(o.ran()
                        ? metrics::TablePrinter::num(o.value("indirect_cost_us"))
                        : "-");
    }
    t.add_row(row);
  }
  t.print();

  return h.finish();
}
