// Machine-readable bench results (`BENCH_<id>.json`).
//
// Every bench binary can write its full result grid as a versioned JSON
// document via `--json=<path>`. The document is deterministic: two runs with
// the same scale and seed produce byte-identical files except for the `meta`
// block (git revision, host info, host-timing numbers). Layout:
//
//   {
//     "schema": "eo-bench-result",
//     "schema_version": 1,
//     "bench": "fig09_vb_blocking",
//     "scale": 1.0,
//     "seed": 7,
//     "meta": { "git_rev": "...", ... },          // volatile, host-specific
//     "sweeps": [
//       {
//         "name": "blocking",
//         "axes": [ { "name": "benchmark", "values": ["hist", ...] }, ... ],
//         "cells": [                              // row-major, axis 0 slowest
//           {
//             "coords": ["hist", "32T(opt)"],
//             "completed": true, "attempts": 1,
//             "exec_ms": ..., "utilization_percent": ..., "spin_busy_ms": ...,
//             "context_switches": ..., "migrations_in_node": ...,
//             "migrations_cross_node": ..., "vb_parks": ...,
//             "wakeup_p50_ns": ..., "wakeup_p95_ns": ..., "wakeup_p99_ns": ...,
//             "wakeup_count": ...,
//             "bwd": { "windows": ..., "tp": ..., "fp": ..., "fn": ..., "tn": ... },
//             "extra": { "tput_ops_s": ..., ... } // bench-specific derived values
//           },
//           { "coords": [...], "na": true },      // grid point not applicable
//           { "coords": [...], "skipped": true }  // excluded by --filter
//         ]
//       }
//     ]
//   }
//
// `result_shape()` (result.cc) is this layout as a `json::Shape` table, with
// its value rules: the cell count is the product of the axis sizes, every
// coord is one of its axis's values, and `meta.history` holds at most
// kMaxHistory entries. `validate_result_json` checks a document against it
// (the `json_check` tool and the bench_json_smoke ctest use it).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "exp/runner.h"
#include "exp/sweep.h"

namespace eo::exp {

inline constexpr int kResultSchemaVersion = 1;
inline constexpr const char* kResultSchemaName = "eo-bench-result";

/// One point of a bench's perf trajectory: the gated micro results of one
/// `--gate` run, stamped with the revision and a caller-supplied timestamp.
/// Recorded under `meta.history` (volatile like the rest of `meta`, so the
/// determinism/golden guarantees are unaffected).
struct PerfHistoryEntry {
  std::string git_rev;
  std::string stamp;  ///< caller-supplied wall-clock label, e.g. ISO date
  /// Measured ns/item per gated micro, registration order.
  std::vector<std::pair<std::string, double>> ns_per_item;
};

class ResultDoc {
 public:
  /// Oldest history entries beyond this many are dropped at append time, so
  /// the trajectory in a long-lived BENCH json stays bounded.
  static constexpr std::size_t kMaxHistory = 50;

  ResultDoc(std::string bench_id, double scale, std::uint64_t seed)
      : bench_id_(std::move(bench_id)), scale_(scale), seed_(seed) {}

  /// Appends one sweep's grid. The outcomes must come from a runner built on
  /// this sweep (cell count = product of axis sizes).
  void add_sweep(const Sweep& sweep, const Outcomes& outcomes);

  /// Volatile host metadata (excluded from determinism guarantees). The git
  /// revision is added automatically at render time unless already set.
  void set_meta(const std::string& key, const std::string& value);
  void set_meta(const std::string& key, double value);

  /// Appends one perf-trajectory point to `meta.history` (capped at
  /// kMaxHistory, oldest dropped). Callers carrying a trajectory forward
  /// append the prior file's entries first, then the fresh one.
  void add_history(PerfHistoryEntry entry);
  const std::vector<PerfHistoryEntry>& history() const { return history_; }

  /// Renders the document; output is deterministic given the same inputs.
  std::string render() const;

  /// Validates and writes the document; returns false (with `err`) on an
  /// invalid document or an I/O failure.
  bool write(const std::string& path, std::string* err) const;

 private:
  struct SweepBlock {
    std::string name;
    std::vector<std::pair<std::string, std::vector<std::string>>> axes;
    std::vector<CellOutcome> cells;
  };
  struct MetaEntry {
    std::string key;
    std::string str;
    double num = 0.0;
    bool is_num = false;
  };

  std::string bench_id_;
  double scale_;
  std::uint64_t seed_;
  std::vector<MetaEntry> meta_;
  std::vector<PerfHistoryEntry> history_;
  std::vector<SweepBlock> sweeps_;
};

/// Parses `meta.history` out of a previously written result document (for
/// benches carrying a perf trajectory across runs). Returns an empty vector
/// when the text is not a valid result document or has no history.
std::vector<PerfHistoryEntry> parse_history(const std::string& text);

/// The eo-bench-result document's table (layout above).
const json::Shape& result_shape();

/// Checks a rendered result document against result_shape().
bool validate_result_json(const std::string& text, std::string* err);

/// `git rev-parse HEAD` of the working tree, or "unknown".
std::string current_git_rev();

}  // namespace eo::exp
