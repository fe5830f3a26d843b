// Host-time spans the benchmark records around each public call it makes
// into the simulator (the traced run). Spans are kept in memory and written
// out once, at exit; a layer's self time is derived from them afterwards.
//
// A span is named "<layer>.<call>" (e.g. "kern.run_to_exit"); the layer is
// the part before the first dot. `run` groups the spans of one workload pass
// (setup repetitions use negative ids).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the log was created
  std::int64_t end_ns = -1;   ///< -1 while open
  int parent = -1;            ///< index of the enclosing span, -1 = root
  int run = 0;
};

/// Thread-safe span store. When disabled, open() returns -1 and close()
/// ignores it, so call sites need no branches of their own.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  std::int64_t now_ns() const;

  int open(const char* name, int parent, int run);
  void close(int id);

  /// Copy of every span recorded so far.
  std::vector<Span> spans() const;

  /// One JSON object per line: name, start_ns, end_ns, parent, run.
  bool write_jsonl(const std::string& path, std::string* err) const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int parent, int run)
      : log_(log), id_(log.open(name, parent, run)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Totals of every closed span of one name.
struct SpanStat {
  std::string name;
  std::uint64_t count = 0;
  double busy_ms = 0.0;  ///< summed durations
  double self_ms = 0.0;  ///< durations minus the union of child spans
};

/// Per-span self time: duration minus the part of [start, end) covered by
/// the union of its children (children may overlap when hosts run on several
/// threads). Indexed like `spans`; open spans get 0.
std::vector<std::int64_t> self_ns(const std::vector<Span>& spans);

}  // namespace perfbench
