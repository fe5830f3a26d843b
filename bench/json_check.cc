// json_check <file>... — validates machine-readable bench documents. The
// document's own "schema" field picks its table (a `json::Shape`) from one
// registry; a schema it does not name fails:
//
//   "eo-bench-result"   result grids (src/exp/result.h)
//   "eo-metrics"        live-telemetry exports (src/obs/export.h)
//   "eo-metrics-fleet"  merged fleet telemetry (src/obs/fleet_agg.h)
//   "eo-taskstats"      per-task delay accounting (src/obs/taskstats.h)
//
// Beyond structure, any recorded watchdog violation fails the check — in
// eo-metrics documents (watchdog.violations) and in result-grid cells that
// embed an "obs" summary (obs.watchdog_violations). Exits nonzero unless
// every file passes. Used by the bench_json_smoke / obs_smoke ctests, and
// handy for checking archived BENCH_*.json documents by hand.
//
// json_check --golden=<golden> <file> — determinism mode: additionally
// requires <file> to be value-identical to <golden> outside the top-level
// "meta" block (which carries timestamps and host details). The sched_golden
// ctest uses this to pin the default-policy scheduler output to a document
// captured before the SchedPolicy refactor.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"
#include "exp/result.h"
#include "obs/export.h"
#include "obs/fleet_agg.h"

namespace {

/// Fails result grids whose cells embed an obs summary with violations.
bool check_cell_watchdogs(const eo::json::Value& root, std::string* err) {
  for (const auto& s : root.get("sweeps")->items) {
    for (const auto& cell : s.get("cells")->items) {
      const eo::json::Value* obs = cell.get("obs");
      const eo::json::Value* v =
          obs ? obs->get("watchdog_violations") : nullptr;
      if (v && v->num != 0) {
        *err = "cell reports " +
               std::to_string(static_cast<long long>(v->num)) +
               " watchdog violation(s)";
        return false;
      }
    }
  }
  return true;
}

/// The registry: every document json_check knows, by its table's schema.
const eo::json::Shape* shape_for(const std::string& schema) {
  for (const eo::json::Shape* s :
       {&eo::exp::result_shape(), &eo::obs::metrics_shape(),
        &eo::obs::fleet_metrics_shape(), &eo::obs::taskstats_shape()}) {
    if (schema == s->schema) return s;
  }
  return nullptr;
}

bool check_file(const std::string& text, std::string* err) {
  eo::json::Value root;
  if (!eo::json::parse(text, &root, err)) return false;
  const eo::json::Value* schema = root.get("schema");
  if (!schema || !schema->is_string()) {
    *err = "document has no string 'schema' field";
    return false;
  }
  const eo::json::Shape* shape = shape_for(schema->str);
  if (shape == nullptr) {
    *err = "unknown schema '" + schema->str + "'";
    return false;
  }
  if (!eo::json::check(root, *shape, err)) return false;
  if (shape == &eo::exp::result_shape()) return check_cell_watchdogs(root, err);
  const eo::json::Value* wd = root.get("watchdog");
  const eo::json::Value* v = wd ? wd->get("violations") : nullptr;
  if (v && v->num != 0) {
    *err = "watchdog recorded " +
           std::to_string(static_cast<long long>(v->num)) + " violation(s)";
    return false;
  }
  return true;
}

/// Value-level equality with a path-annotated reason on mismatch.
bool values_equal(const eo::json::Value& a, const eo::json::Value& b,
                  const std::string& path, std::string* err) {
  if (a.type != b.type) {
    *err = path + ": type mismatch";
    return false;
  }
  switch (a.type) {
    case eo::json::Value::kNull:
      return true;
    case eo::json::Value::kBool:
      if (a.b != b.b) {
        *err = path + ": bool mismatch";
        return false;
      }
      return true;
    case eo::json::Value::kNumber:
      if (a.num != b.num) {
        *err = path + ": " + std::to_string(a.num) + " != " +
               std::to_string(b.num);
        return false;
      }
      return true;
    case eo::json::Value::kString:
      if (a.str != b.str) {
        *err = path + ": '" + a.str + "' != '" + b.str + "'";
        return false;
      }
      return true;
    case eo::json::Value::kArray:
      if (a.items.size() != b.items.size()) {
        *err = path + ": array length " + std::to_string(a.items.size()) +
               " != " + std::to_string(b.items.size());
        return false;
      }
      for (std::size_t i = 0; i < a.items.size(); ++i) {
        if (!values_equal(a.items[i], b.items[i],
                          path + "[" + std::to_string(i) + "]", err)) {
          return false;
        }
      }
      return true;
    case eo::json::Value::kObject:
      if (a.fields.size() != b.fields.size()) {
        *err = path + ": field count " + std::to_string(a.fields.size()) +
               " != " + std::to_string(b.fields.size());
        return false;
      }
      // Field order is part of the contract: the writer is deterministic.
      for (std::size_t i = 0; i < a.fields.size(); ++i) {
        if (a.fields[i].first != b.fields[i].first) {
          *err = path + ": key '" + a.fields[i].first + "' != '" +
                 b.fields[i].first + "'";
          return false;
        }
        if (!values_equal(a.fields[i].second, b.fields[i].second,
                          path + "." + a.fields[i].first, err)) {
          return false;
        }
      }
      return true;
  }
  return true;
}

/// Drops the top-level "meta" field (timestamps, host details).
void drop_meta(eo::json::Value* v) {
  if (!v->is_object()) return;
  for (auto it = v->fields.begin(); it != v->fields.end(); ++it) {
    if (it->first == "meta") {
      v->fields.erase(it);
      return;
    }
  }
}

bool check_golden(const std::string& golden_text, const std::string& text,
                  std::string* err) {
  eo::json::Value golden, doc;
  if (!eo::json::parse(golden_text, &golden, err)) {
    *err = "golden: " + *err;
    return false;
  }
  if (!eo::json::parse(text, &doc, err)) return false;
  drop_meta(&golden);
  drop_meta(&doc);
  return values_equal(golden, doc, "$", err);
}

}  // namespace

int main(int argc, char** argv) {
  std::string golden_path;
  int first_file = 1;
  if (argc >= 2 && std::string(argv[1]).rfind("--golden=", 0) == 0) {
    golden_path = std::string(argv[1]).substr(9);
    first_file = 2;
  }
  if (first_file >= argc || (first_file == 2 && golden_path.empty())) {
    std::fprintf(stderr,
                 "usage: json_check [--golden=<golden>] <file>...\n");
    return 2;
  }
  std::string golden_text;
  if (!golden_path.empty()) {
    std::ifstream g(golden_path, std::ios::binary);
    if (!g) {
      std::fprintf(stderr, "json_check: cannot open golden %s\n",
                   golden_path.c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << g.rdbuf();
    golden_text = ss.str();
  }
  int failures = 0;
  for (int i = first_file; i < argc; ++i) {
    std::ifstream f(argv[i], std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "json_check: cannot open %s\n", argv[i]);
      ++failures;
      continue;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    std::string err;
    if (!check_file(ss.str(), &err)) {
      std::fprintf(stderr, "json_check: %s: INVALID: %s\n", argv[i],
                   err.c_str());
      ++failures;
    } else if (!golden_text.empty() &&
               !check_golden(golden_text, ss.str(), &err)) {
      std::fprintf(stderr, "json_check: %s: DIVERGES from %s: %s\n", argv[i],
                   golden_path.c_str(), err.c_str());
      ++failures;
    } else {
      std::printf("json_check: %s: ok\n", argv[i]);
    }
  }
  return failures == 0 ? 0 : 1;
}
