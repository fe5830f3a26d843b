#include "obs/export.h"

#include <algorithm>
#include <sstream>

#include "common/histogram.h"
#include "common/json.h"
#include "common/logging.h"
#include "metrics/table_printer.h"

namespace eo::obs {

using json::fail;

namespace {

/// A {name, value} array: counters, and eo-metrics' per-host gauges.
template <typename NamedValues>
void write_named_values(json::Writer& w, const char* key,
                        const NamedValues& vs) {
  w.key(key);
  w.begin_array();
  for (const auto& v : vs) {
    w.begin_object();
    w.field("name", v.name);
    w.field("value", v.value);
    w.end_object();
  }
  w.end_array();
}

void render_json(const MetricsDoc& doc, std::ostream& os) {
  EO_CHECK_EQ(doc.core_series.size(),
              doc.tick_series.size() * static_cast<std::size_t>(doc.n_cores));
  json::Writer w(os);
  w.begin_object();
  w.field("schema", kMetricsSchemaName);
  w.field("schema_version", kMetricsSchemaVersion);
  w.field("n_cores", doc.n_cores);
  w.field("interval_ns", static_cast<std::int64_t>(doc.interval));
  w.field("ticks", doc.ticks);
  w.field("dropped_ticks", doc.dropped_ticks);

  write_counters_json(w, doc.counters);
  write_named_values(w, "gauges", doc.gauges);
  write_histograms_json(w, doc.histograms);

  w.key("series");
  w.begin_object();
  w.key("ticks");
  w.begin_array();
  for (const auto& t : doc.tick_series) {
    w.begin_object();
    w.field("ts_ns", static_cast<std::int64_t>(t.ts));
    w.field("live_tasks", t.live_tasks);
    w.field("online_cores", t.online_cores);
    w.field("d_context_switches", t.d_context_switches);
    w.field("d_wakeups", t.d_wakeups);
    w.field("d_migrations", t.d_migrations);
    w.end_object();
  }
  w.end_array();
  w.key("cores");
  w.begin_array();
  for (int c = 0; c < doc.n_cores; ++c) {
    w.begin_object();
    w.field("core", c);
    w.key("samples");
    w.begin_array();
    for (std::size_t f = 0; f < doc.tick_series.size(); ++f) {
      const CoreSample& s =
          doc.core_series[f * static_cast<std::size_t>(doc.n_cores) +
                          static_cast<std::size_t>(c)];
      w.begin_object();
      w.field("rq", s.rq_depth);
      w.field("sched", s.schedulable);
      w.field("vb", s.vb_parked);
      w.field("skip", s.bwd_skipped);
      w.field("run", static_cast<int>(s.running));
      w.field("on", static_cast<int>(s.online));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();  // series

  write_watchdog_json(w, doc.watchdog_checks, doc.watchdog_violations,
                      doc.violation_records);

  if (doc.taskstats != nullptr) {
    w.key("taskstats");
    write_taskstats_json(w, *doc.taskstats);
  }
  w.end_object();
  os << "\n";
}

void render_csv(const MetricsDoc& doc, std::ostream& os) {
  os << "ts_ns,core,rq_depth,schedulable,vb_parked,bwd_skipped,running,"
        "online,live_tasks,online_cores,d_context_switches,d_wakeups,"
        "d_migrations\n";
  for (std::size_t f = 0; f < doc.tick_series.size(); ++f) {
    const TickSample& t = doc.tick_series[f];
    // One global row (core == -1), then one row per core.
    os << t.ts << ",-1,,,,,,," << t.live_tasks << ',' << t.online_cores << ','
       << t.d_context_switches << ',' << t.d_wakeups << ',' << t.d_migrations
       << '\n';
    for (int c = 0; c < doc.n_cores; ++c) {
      const CoreSample& s =
          doc.core_series[f * static_cast<std::size_t>(doc.n_cores) +
                          static_cast<std::size_t>(c)];
      os << t.ts << ',' << c << ',' << s.rq_depth << ',' << s.schedulable
         << ',' << s.vb_parked << ',' << s.bwd_skipped << ','
         << static_cast<int>(s.running) << ',' << static_cast<int>(s.online)
         << ",,,,,\n";
    }
  }
}

void render_report(const MetricsDoc& doc, std::ostream& os) {
  os << "eo-metrics report: cores=" << doc.n_cores
     << " interval=" << to_us(doc.interval) << "us ticks=" << doc.ticks
     << " retained=" << doc.tick_series.size()
     << " dropped=" << doc.dropped_ticks << "\n";
  report_watchdog(os, doc.watchdog_checks, doc.watchdog_violations,
                  doc.violation_records);

  if (!doc.tick_series.empty()) {
    os << "\n";
    metrics::TablePrinter t(
        {"core", "avg_rq", "max_rq", "avg_sched", "avg_vb", "avg_skip",
         "run%", "on%"},
        os);
    const auto frames = doc.tick_series.size();
    for (int c = 0; c < doc.n_cores; ++c) {
      double rq = 0, sched = 0, vb = 0, skip = 0, run = 0, on = 0;
      std::int32_t max_rq = 0;
      for (std::size_t f = 0; f < frames; ++f) {
        const CoreSample& s =
            doc.core_series[f * static_cast<std::size_t>(doc.n_cores) +
                            static_cast<std::size_t>(c)];
        rq += s.rq_depth;
        sched += s.schedulable;
        vb += s.vb_parked;
        skip += s.bwd_skipped;
        run += s.running;
        on += s.online;
        max_rq = std::max(max_rq, s.rq_depth);
      }
      const double n = static_cast<double>(frames);
      t.add_row({metrics::TablePrinter::integer(c),
                 metrics::TablePrinter::num(rq / n),
                 metrics::TablePrinter::integer(max_rq),
                 metrics::TablePrinter::num(sched / n),
                 metrics::TablePrinter::num(vb / n),
                 metrics::TablePrinter::num(skip / n),
                 metrics::TablePrinter::num(run / n * 100.0, 1),
                 metrics::TablePrinter::num(on / n * 100.0, 1)});
    }
    t.print();
  }

  report_counters(os, "counters", doc.counters);
  if (!doc.gauges.empty()) {
    os << "gauges:\n";
    for (const auto& g : doc.gauges) {
      os << "  " << g.name << " " << g.value << "\n";
    }
  }
  report_histograms(os, "histograms", doc.histograms);
}

}  // namespace

void write_counters_json(json::Writer& w,
                         const std::vector<MetricRegistry::CounterValue>& cs) {
  write_named_values(w, "counters", cs);
}

void write_histograms_json(json::Writer& w,
                           const std::vector<HistogramSummary>& hs) {
  w.key("histograms");
  w.begin_array();
  for (const auto& h : hs) {
    w.begin_object();
    w.field("name", h.name);
    w.field("count", h.count);
    w.field("min", h.min);
    w.field("max", h.max);
    w.field("mean", h.mean);
    w.field("p50", h.p50);
    w.field("p95", h.p95);
    w.field("p99", h.p99);
    w.field("p999", h.p999);
    w.end_object();
  }
  w.end_array();
}

void write_watchdog_json(json::Writer& w, std::uint64_t checks,
                         std::uint64_t violations,
                         const std::vector<Violation>& records) {
  w.key("watchdog");
  w.begin_object();
  w.field("checks", checks);
  w.field("violations", violations);
  w.key("records");
  w.begin_array();
  for (const auto& v : records) {
    w.begin_object();
    w.field("ts_ns", static_cast<std::int64_t>(v.ts));
    w.field("invariant", v.invariant);
    w.field("detail", v.detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void report_watchdog(std::ostream& os, std::uint64_t checks,
                     std::uint64_t violations,
                     const std::vector<Violation>& records) {
  os << "watchdog: checks=" << checks << " violations=" << violations << "\n";
  for (const auto& v : records) {
    os << "  VIOLATION t=" << v.ts << "ns " << v.invariant << ": " << v.detail
       << "\n";
  }
}

void report_counters(std::ostream& os, const char* title,
                     const std::vector<MetricRegistry::CounterValue>& cs) {
  os << "\n" << title << ":\n";
  for (const auto& c : cs) os << "  " << c.name << " " << c.value << "\n";
}

void report_histograms(std::ostream& os, const char* title,
                       const std::vector<HistogramSummary>& hs) {
  if (hs.empty()) return;
  os << title << ":\n";
  for (const auto& h : hs) {
    os << "  " << h.name << " count=" << h.count << " min=" << h.min
       << " max=" << h.max << " mean=" << h.mean << " p50=" << h.p50
       << " p95=" << h.p95 << " p99=" << h.p99 << " p999=" << h.p999 << "\n";
  }
}

json::Shape named_numbers(std::initializer_list<const char*> keys) {
  std::vector<json::Member> m(keys.begin(), keys.end());
  m.insert(m.begin(), {"name", json::text(json::non_empty)});
  return json::array_of(json::object(std::move(m)));
}

const json::Shape& histograms_shape() {
  static const json::Shape shape = named_numbers(
      {"count", "min", "max", "mean", "p50", "p95", "p99", "p999"});
  return shape;
}

const json::Shape& watchdog_shape() {
  static const json::Shape shape = json::object(
      {"checks", "violations",
       {"records", json::array_of(json::object(
                       {"ts_ns", {"invariant", json::text()}}))}});
  return shape;
}

HistogramSummary summarize_histogram(const std::string& name,
                                     const Histogram& hist) {
  HistogramSummary s;
  s.name = name;
  s.count = hist.total_count();
  s.min = hist.min();
  s.max = hist.max();
  s.mean = hist.mean();
  s.p50 = hist.p50();
  s.p95 = hist.p95();
  s.p99 = hist.p99();
  s.p999 = hist.p999();
  return s;
}

std::string render(const MetricsDoc& doc, const std::string& format) {
  std::ostringstream os;
  if (format == "json") {
    render_json(doc, os);
  } else if (format == "csv") {
    render_csv(doc, os);
  } else if (format == "report") {
    render_report(doc, os);
  } else {
    EO_CHECK(false) << "unknown metrics format '" << format << "'";
  }
  return os.str();
}

bool export_to_file(const MetricsDoc& doc, const std::string& path,
                    const std::string& format, std::string* err) {
  if (format != "json" && format != "csv" && format != "report") {
    return fail(err, "unknown metrics format '" + format + "'");
  }
  return json::write_file(path, render(doc, format),
                          format == "json" ? validate_metrics_json : nullptr,
                          err);
}

namespace {

/// One core series per core, each with one sample per retained tick.
bool cores_match(const json::Value& doc, std::string* why) {
  const json::Value& series = *doc.get("series");
  const auto& cores = series.get("cores")->items;
  if (static_cast<double>(cores.size()) != doc.get("n_cores")->num) {
    return fail(why, "series 'cores' does not hold n_cores entries");
  }
  for (const auto& c : cores) {
    if (c.get("samples")->items.size() != series.get("ticks")->items.size()) {
      return fail(why, "core samples misaligned with ticks");
    }
  }
  return true;
}

}  // namespace

const json::Shape& metrics_shape() {
  static const json::Shape shape = [] {
    const json::Shape tick = json::object(
        {"ts_ns", "live_tasks", "online_cores", "d_context_switches",
         "d_wakeups", "d_migrations"});
    const json::Shape sample =
        json::object({"rq", "sched", "vb", "skip", "run", "on"});
    const json::Shape core =
        json::object({"core", {"samples", json::array_of(sample)}});
    return json::document(
        kMetricsSchemaName, kMetricsSchemaVersion,
        {{"n_cores", json::number(json::positive)},
         "interval_ns", "ticks", "dropped_ticks",
         {"counters", named_numbers({"value"})},
         {"gauges", named_numbers({"value"})},
         {"histograms", histograms_shape()},
         {"series", json::object({{"ticks", json::array_of(tick)},
                                  {"cores", json::array_of(core)}})},
         {"watchdog", watchdog_shape()},
         {"taskstats", taskstats_shape(), json::kOptional}},
        cores_match);
  }();
  return shape;
}

bool validate_metrics_json(const std::string& text, std::string* err) {
  return json::check_text(text, metrics_shape(), err);
}

}  // namespace eo::obs
