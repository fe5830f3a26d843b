#include "obs/progress.h"

#include <sstream>

#include "common/json.h"

namespace eo::obs {
namespace {

const char* kind_name(ProgressEvent::Kind k) {
  switch (k) {
    case ProgressEvent::Kind::kHostStart:
      return "host_start";
    case ProgressEvent::Kind::kHostProgress:
      return "host_progress";
    case ProgressEvent::Kind::kHostFinish:
      return "host_finish";
    case ProgressEvent::Kind::kCellStart:
      return "cell_start";
    case ProgressEvent::Kind::kCellFinish:
      return "cell_finish";
  }
  return "?";
}

}  // namespace

void LineProgressSink::emit(const ProgressEvent& ev) {
  // Only terminal events; starts and window fractions would swamp a
  // terminal at 32 hosts x many cells.
  std::lock_guard<std::mutex> lock(mu_);
  switch (ev.kind) {
    case ProgressEvent::Kind::kHostFinish:
      std::fprintf(out_,
                   "  host %d/%d done: completed=%llu shed=%llu%s\n",
                   ev.host + 1, ev.n_hosts,
                   static_cast<unsigned long long>(ev.completed),
                   static_cast<unsigned long long>(ev.shed),
                   ev.watchdog_violations ? " WATCHDOG" : "");
      break;
    case ProgressEvent::Kind::kCellFinish:
      // The per-cell progress line of every bench.
      if (ev.not_applicable) {
        std::fprintf(out_, "[%zu/%zu] %s: n/a\n", ev.done, ev.total,
                     ev.label.c_str());
      } else {
        std::fprintf(out_, "[%zu/%zu] %s: %s exec=%.2fms%s\n", ev.done,
                     ev.total, ev.label.c_str(),
                     ev.ok ? "ok" : "INCOMPLETE", ev.exec_ms,
                     ev.attempts > 1 ? " (retried)" : "");
      }
      break;
    case ProgressEvent::Kind::kHostStart:
    case ProgressEvent::Kind::kHostProgress:
    case ProgressEvent::Kind::kCellStart:
      break;
  }
  std::fflush(out_);
}

void JsonlProgressSink::emit(const ProgressEvent& ev) {
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object();
  w.field("event", kind_name(ev.kind));
  switch (ev.kind) {
    case ProgressEvent::Kind::kHostStart:
      w.field("host", ev.host);
      w.field("n_hosts", ev.n_hosts);
      break;
    case ProgressEvent::Kind::kHostProgress:
      w.field("host", ev.host);
      w.field("n_hosts", ev.n_hosts);
      w.field("fraction", ev.fraction);
      w.field("completed", ev.completed);
      w.field("shed", ev.shed);
      break;
    case ProgressEvent::Kind::kHostFinish:
      w.field("host", ev.host);
      w.field("n_hosts", ev.n_hosts);
      w.field("completed", ev.completed);
      w.field("shed", ev.shed);
      w.field("watchdog_violations", ev.watchdog_violations);
      break;
    case ProgressEvent::Kind::kCellStart:
      w.field("cell", ev.label);
      w.field("total", ev.total);
      break;
    case ProgressEvent::Kind::kCellFinish:
      w.field("cell", ev.label);
      w.field("done", ev.done);
      w.field("total", ev.total);
      if (ev.not_applicable) {
        w.field("status", "n/a");
      } else {
        w.field("status", ev.ok ? "ok" : "incomplete");
        w.field("exec_ms", ev.exec_ms);
        w.field("attempts", ev.attempts);
      }
      break;
  }
  w.end_object();
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(out_, "%s\n", os.str().c_str());
  std::fflush(out_);
}

std::unique_ptr<ProgressSink> make_progress_sink(const std::string& mode,
                                                 std::FILE* out) {
  if (mode == "line") return std::make_unique<LineProgressSink>(out);
  if (mode == "jsonl") return std::make_unique<JsonlProgressSink>(out);
  return nullptr;  // "none"
}

}  // namespace eo::obs
