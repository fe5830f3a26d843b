#include "obs/fleet_agg.h"

#include <algorithm>
#include <sstream>

#include "common/json.h"
#include "common/logging.h"
#include "metrics/table_printer.h"

namespace eo::obs {

using json::fail;

namespace {

std::string host_prefixed(int host, const std::string& invariant) {
  return "host=" + std::to_string(host) + " " + invariant;
}

void render_fleet_json(const FleetMetricsDoc& doc, std::ostream& os) {
  json::Writer w(os);
  w.begin_object();
  w.field("schema", kFleetMetricsSchemaName);
  w.field("schema_version", kFleetMetricsSchemaVersion);
  w.field("n_hosts", doc.n_hosts);
  w.field("n_cores", doc.n_cores);
  w.field("interval_ns", static_cast<std::int64_t>(doc.interval));
  w.field("ticks", doc.ticks);
  w.field("dropped_ticks", doc.dropped_ticks);

  write_counters_json(w, doc.counters);

  w.key("gauges");
  w.begin_array();
  for (const auto& g : doc.gauges) {
    w.begin_object();
    w.field("name", g.name);
    w.field("min", g.min);
    w.field("mean", g.mean);
    w.field("max", g.max);
    w.end_object();
  }
  w.end_array();

  write_histograms_json(w, doc.histograms);

  w.key("hosts");
  w.begin_array();
  for (const auto& h : doc.hosts) {
    w.begin_object();
    w.field("host", h.host);
    w.field("issued", h.issued);
    w.field("completed", h.completed);
    w.field("shed", h.shed);
    w.field("p99_ns", h.p99_ns);
    w.field("queue_p99_ns", h.queue_p99_ns);
    w.field("service_p99_ns", h.service_p99_ns);
    w.field("sched_delay_p99_ns", h.sched_delay_p99_ns);
    w.field("mean_rq_depth", h.mean_rq_depth);
    w.field("vb_park_rate", h.vb_park_rate);
    w.field("bwd_skip_rate", h.bwd_skip_rate);
    w.field("ticks", h.ticks);
    w.field("watchdog_violations", h.watchdog_violations);
    w.end_object();
  }
  w.end_array();

  write_watchdog_json(w, doc.watchdog_checks, doc.watchdog_violations,
                      doc.violation_records);
  w.end_object();
  os << "\n";
}

void render_fleet_report(const FleetMetricsDoc& doc, std::ostream& os) {
  os << "eo-metrics-fleet report: hosts=" << doc.n_hosts
     << " cores/host=" << doc.n_cores << " interval=" << to_us(doc.interval)
     << "us ticks=" << doc.ticks << " dropped=" << doc.dropped_ticks << "\n";
  report_watchdog(os, doc.watchdog_checks, doc.watchdog_violations,
                  doc.violation_records);

  if (!doc.hosts.empty()) {
    os << "\n";
    metrics::TablePrinter t(
        {"host", "completed", "shed", "p99_us", "queue_us", "svc_us",
         "sched_us", "avg_rq", "vb/s", "skip/s", "wd"},
        os);
    for (const auto& h : doc.hosts) {
      t.add_row({metrics::TablePrinter::integer(h.host),
                 metrics::TablePrinter::integer(
                     static_cast<std::int64_t>(h.completed)),
                 metrics::TablePrinter::integer(
                     static_cast<std::int64_t>(h.shed)),
                 metrics::TablePrinter::num(static_cast<double>(h.p99_ns) /
                                            1000.0),
                 metrics::TablePrinter::num(
                     static_cast<double>(h.queue_p99_ns) / 1000.0),
                 metrics::TablePrinter::num(
                     static_cast<double>(h.service_p99_ns) / 1000.0),
                 metrics::TablePrinter::num(
                     static_cast<double>(h.sched_delay_p99_ns) / 1000.0),
                 metrics::TablePrinter::num(h.mean_rq_depth),
                 metrics::TablePrinter::num(h.vb_park_rate),
                 metrics::TablePrinter::num(h.bwd_skip_rate),
                 metrics::TablePrinter::integer(
                     static_cast<std::int64_t>(h.watchdog_violations))});
    }
    t.print();
  }

  report_counters(os, "counters (fleet sums)", doc.counters);
  if (!doc.gauges.empty()) {
    os << "gauges (min/mean/max across hosts):\n";
    for (const auto& g : doc.gauges) {
      os << "  " << g.name << " " << g.min << "/" << g.mean << "/" << g.max
         << "\n";
    }
  }
  report_histograms(os, "histograms (merged across hosts)", doc.histograms);
}

}  // namespace

void FleetAggregator::add_host(const FleetHostSample& s) {
  EO_CHECK(s.doc != nullptr) << "fleet host sample without a MetricsDoc";
  EO_CHECK(s.host >= 0) << "fleet host sample without a host index";
  for (const auto& h : hosts_) {
    EO_CHECK(h.entry.host != s.host)
        << "duplicate fleet host index " << s.host;
  }

  HostAccum a;
  a.entry.host = s.host;
  a.entry.issued = s.issued;
  a.entry.completed = s.completed;
  a.entry.shed = s.shed;
  a.entry.p99_ns = s.p99_ns;
  a.entry.queue_p99_ns = s.queue_p99_ns;
  a.entry.service_p99_ns = s.service_p99_ns;
  a.entry.sched_delay_p99_ns = s.sched_delay_p99_ns;
  a.entry.vb_park_rate = s.vb_park_rate;
  a.entry.bwd_skip_rate = s.bwd_skip_rate;
  a.entry.ticks = s.doc->ticks;
  a.entry.watchdog_violations = s.doc->watchdog_violations;

  // Mean rq depth over everything the host retained: frames x cores.
  const std::size_t samples = s.doc->core_series.size();
  if (samples > 0) {
    // Integer sum first — exact, so the single division is order-free.
    std::int64_t rq_sum = 0;
    for (const auto& cs : s.doc->core_series) rq_sum += cs.rq_depth;
    a.entry.mean_rq_depth =
        static_cast<double>(rq_sum) / static_cast<double>(samples);
  }

  a.n_cores = s.doc->n_cores;
  a.interval = s.doc->interval;
  a.dropped_ticks = s.doc->dropped_ticks;
  a.counters = s.doc->counters;
  a.gauges = s.doc->gauges;
  a.watchdog_checks = s.doc->watchdog_checks;
  a.violations = s.doc->violation_records;
  a.histograms.reserve(s.histograms.size());
  for (const auto& [name, hist] : s.histograms) {
    EO_CHECK(hist != nullptr) << "null histogram '" << name << "'";
    a.histograms.emplace_back(name, *hist);  // deep copy; kernel may die
  }
  hosts_.push_back(std::move(a));
}

FleetMetricsDoc FleetAggregator::finish() const {
  EO_CHECK(!hosts_.empty()) << "finish() on an empty FleetAggregator";

  // Canonical order: host index. Everything below — including the
  // floating-point histogram merges — walks hosts in this order, so the
  // result is independent of add_host order.
  std::vector<const HostAccum*> order;
  order.reserve(hosts_.size());
  for (const auto& h : hosts_) order.push_back(&h);
  std::sort(order.begin(), order.end(),
            [](const HostAccum* a, const HostAccum* b) {
              return a->entry.host < b->entry.host;
            });

  FleetMetricsDoc doc;
  doc.n_hosts = static_cast<int>(order.size());
  doc.n_cores = order.front()->n_cores;
  doc.interval = order.front()->interval;

  const std::size_t n_counters = order.front()->counters.size();
  const std::size_t n_gauges = order.front()->gauges.size();
  const std::size_t n_hists = order.front()->histograms.size();
  doc.counters.resize(n_counters);
  std::vector<std::int64_t> gauge_sum(n_gauges, 0);
  doc.gauges.resize(n_gauges);
  std::vector<Histogram> merged(n_hists);

  for (std::size_t i = 0; i < order.size(); ++i) {
    const HostAccum& h = *order[i];
    EO_CHECK_EQ(h.n_cores, doc.n_cores);
    EO_CHECK_EQ(h.interval, doc.interval);
    EO_CHECK_EQ(h.counters.size(), n_counters);
    EO_CHECK_EQ(h.gauges.size(), n_gauges);
    EO_CHECK_EQ(h.histograms.size(), n_hists);

    doc.ticks += h.entry.ticks;
    doc.dropped_ticks += h.dropped_ticks;
    doc.watchdog_checks += h.watchdog_checks;
    doc.watchdog_violations += h.entry.watchdog_violations;

    for (std::size_t c = 0; c < n_counters; ++c) {
      if (i == 0) {
        doc.counters[c].name = h.counters[c].name;
      } else {
        EO_CHECK(doc.counters[c].name == h.counters[c].name)
            << "counter order mismatch across hosts: '"
            << doc.counters[c].name << "' vs '" << h.counters[c].name << "'";
      }
      doc.counters[c].value += h.counters[c].value;
    }
    for (std::size_t g = 0; g < n_gauges; ++g) {
      const std::int64_t v = h.gauges[g].value;
      if (i == 0) {
        doc.gauges[g].name = h.gauges[g].name;
        doc.gauges[g].min = v;
        doc.gauges[g].max = v;
      } else {
        EO_CHECK(doc.gauges[g].name == h.gauges[g].name)
            << "gauge order mismatch across hosts";
        doc.gauges[g].min = std::min(doc.gauges[g].min, v);
        doc.gauges[g].max = std::max(doc.gauges[g].max, v);
      }
      gauge_sum[g] += v;  // int64: exact, order-free
    }
    for (std::size_t m = 0; m < n_hists; ++m) {
      EO_CHECK(order.front()->histograms[m].first == h.histograms[m].first)
          << "histogram order mismatch across hosts";
      merged[m].merge(h.histograms[m].second);
    }

    doc.hosts.push_back(h.entry);
    for (const auto& v : h.violations) {
      Violation tagged = v;
      tagged.invariant = host_prefixed(h.entry.host, v.invariant);
      doc.violation_records.push_back(std::move(tagged));
    }
  }

  for (std::size_t g = 0; g < n_gauges; ++g) {
    doc.gauges[g].mean = static_cast<double>(gauge_sum[g]) /
                         static_cast<double>(order.size());
  }
  doc.histograms.reserve(n_hists);
  for (std::size_t m = 0; m < n_hists; ++m) {
    doc.histograms.push_back(
        summarize_histogram(order.front()->histograms[m].first, merged[m]));
  }
  return doc;
}

MetricsDoc tag_host_violations(const MetricsDoc& doc, int host) {
  MetricsDoc tagged = doc;
  for (auto& v : tagged.violation_records) {
    v.invariant = host_prefixed(host, v.invariant);
  }
  return tagged;
}

std::string render_fleet(const FleetMetricsDoc& doc,
                         const std::string& format) {
  std::ostringstream os;
  if (format == "json") {
    render_fleet_json(doc, os);
  } else if (format == "report") {
    render_fleet_report(doc, os);
  } else {
    EO_CHECK(false) << "unknown fleet metrics format '" << format << "'";
  }
  return os.str();
}

bool export_fleet_to_file(const FleetMetricsDoc& doc, const std::string& path,
                          const std::string& format, std::string* err) {
  if (format != "json" && format != "report") {
    return fail(err, "unknown fleet metrics format '" + format + "'");
  }
  return json::write_file(
      path, render_fleet(doc, format),
      format == "json" ? validate_fleet_metrics_json : nullptr, err);
}

namespace {

/// One entry per host, in host order 0..n_hosts-1.
bool hosts_in_order(const json::Value& doc, std::string* why) {
  const auto& hosts = doc.get("hosts")->items;
  if (static_cast<double>(hosts.size()) != doc.get("n_hosts")->num) {
    return fail(why, "'hosts' does not hold n_hosts entries");
  }
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    if (hosts[h].get("host")->num != static_cast<double>(h)) {
      return fail(why, "host entries not sorted 0..n_hosts-1");
    }
  }
  return true;
}

/// The whole point of the fleet doc's records: attributability.
bool records_host_tagged(const json::Value& watchdog, std::string* why) {
  for (const auto& r : watchdog.get("records")->items) {
    if (r.get("invariant")->str.rfind("host=", 0) != 0) {
      return fail(why, "fleet watchdog record invariant lacks host= prefix");
    }
  }
  return true;
}

}  // namespace

const json::Shape& fleet_metrics_shape() {
  static const json::Shape shape = [] {
    json::Shape watchdog = watchdog_shape();
    watchdog.rule = records_host_tagged;
    return json::document(
        kFleetMetricsSchemaName, kFleetMetricsSchemaVersion,
        {{"n_hosts", json::number(json::positive)},
         "n_cores", "interval_ns", "ticks", "dropped_ticks",
         {"counters", named_numbers({"value"})},
         {"gauges", named_numbers({"min", "mean", "max"})},
         {"histograms", histograms_shape()},
         {"hosts", json::array_of(json::object(
                       {"host", "issued", "completed", "shed", "p99_ns",
                        "queue_p99_ns", "service_p99_ns", "sched_delay_p99_ns",
                        "mean_rq_depth", "vb_park_rate", "bwd_skip_rate",
                        "ticks", "watchdog_violations"}))},
         {"watchdog", watchdog}},
        hosts_in_order);
  }();
  return shape;
}

bool validate_fleet_metrics_json(const std::string& text, std::string* err) {
  return json::check_text(text, fleet_metrics_shape(), err);
}

}  // namespace eo::obs
