// Live progress feed.
//
// Long fleet runs (32 hosts x millions of simulated requests per sweep cell)
// used to be opaque until the final tables printed. `ProgressSink` is the
// push interface the drivers — `traffic::ConnectionFleet` (host started /
// window fraction / host finished, with running completed/shed counters and
// the watchdog verdict) and `exp::ExperimentRunner` (cell started/finished)
// — emit into while the run is still going. Two emitters ship:
//
//  * `LineProgressSink`  — human-oriented stderr lines (the default
//    `--progress=line` feed). Cell-finish lines read `[n/m] id: ok
//    exec=..ms`; host events print one terse line per finished host.
//    Start/fraction events are dropped to keep the feed readable.
//  * `JsonlProgressSink` — one JSON object per line for machine consumption
//    (dashboards, sweep babysitters): every event kind is emitted, flushed
//    per line so a tail-reader sees it live.
//
// Emitters are thread-safe (hosts and cells run concurrently on the host
// pool) and purely observational: they only read counters that the
// simulation already maintains, so attaching a sink never perturbs results —
// the `eo-bench-result` / `eo-metrics-fleet` documents are byte-identical
// with the feed on or off.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

namespace eo::obs {

/// One progress event. Fields are kind-dependent; unused ones keep their
/// defaults (the JSONL emitter only renders the fields its kind defines).
struct ProgressEvent {
  enum class Kind {
    kHostStart,     ///< host, n_hosts
    kHostProgress,  ///< host, n_hosts, fraction, completed, shed
    kHostFinish,    ///< host, n_hosts, completed, shed, watchdog_violations
    kCellStart,     ///< label, total
    kCellFinish,    ///< label, done, total, ok/not_applicable, exec_ms,
                    ///< attempts
  };
  Kind kind = Kind::kHostStart;

  // Fleet-host events.
  int host = -1;
  int n_hosts = 0;
  /// Fraction of the measurement window simulated so far, in [0, 1].
  double fraction = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t watchdog_violations = 0;

  // Sweep-cell events.
  std::string label;  ///< cell id
  bool ok = true;
  bool not_applicable = false;
  double exec_ms = 0.0;
  int attempts = 0;
  std::size_t done = 0;
  std::size_t total = 0;
};

/// The feed interface. `emit` must be callable from any host thread.
class ProgressSink {
 public:
  virtual ~ProgressSink() = default;
  virtual void emit(const ProgressEvent& ev) = 0;
};

/// Human-oriented line emitter (see file comment for the format).
class LineProgressSink : public ProgressSink {
 public:
  explicit LineProgressSink(std::FILE* out = stderr) : out_(out) {}
  void emit(const ProgressEvent& ev) override;

 private:
  std::FILE* out_;
  std::mutex mu_;
};

/// Machine-oriented JSONL emitter: one event per line, flushed per line.
class JsonlProgressSink : public ProgressSink {
 public:
  explicit JsonlProgressSink(std::FILE* out = stderr) : out_(out) {}
  void emit(const ProgressEvent& ev) override;

 private:
  std::FILE* out_;
  std::mutex mu_;
};

/// Builds the sink for a `--progress=<mode>` value: "line" and "jsonl" emit
/// to `out`; "none" returns null (no feed). Any other mode is a programming
/// error (the CLI validates before calling).
std::unique_ptr<ProgressSink> make_progress_sink(const std::string& mode,
                                                 std::FILE* out = stderr);

}  // namespace eo::obs
