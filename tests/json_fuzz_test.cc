// Seeded byte-level mutation fuzz of the JSON parser and the document
// validators. Starting from real documents (the three result goldens and
// one small run's eo-metrics, eo-metrics-fleet and Chrome-trace exports),
// each round applies one mutation: truncate, flip a byte, duplicate a span,
// or wrap the document in deep array/object nesting (past the parser's depth
// limit at times). Every mutant goes through json::parse and the matching
// validator; neither may crash, and a second call must give the same verdict
// and reason. The seed is fixed, so a failure reproduces.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "doc_samples.h"
#include "exp/result.h"
#include "obs/export.h"
#include "obs/fleet_agg.h"
#include "trace/export.h"

namespace eo {
namespace {

using Validator = std::function<bool(const std::string&, std::string*)>;

constexpr int kMutantsPerDocument = 400;

std::string mutate(const std::string& doc, Rng& rng) {
  std::string out = doc;
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  switch (rng.next_below(4)) {
    case 0:  // truncate
      out.resize(pick(out.size()));
      break;
    case 1: {  // flip one byte
      const std::size_t i = pick(out.size());
      out[i] = static_cast<char>(out[i] ^ (1 + pick(255)));
      break;
    }
    case 2: {  // duplicate a span somewhere else
      const std::size_t from = pick(out.size());
      const std::size_t len =
          1 + pick(std::min<std::size_t>(64, out.size() - from));
      out.insert(pick(out.size() + 1), out.substr(from, len));
      break;
    }
    default: {  // wrap in deep nesting, sometimes past the parser's limit
      const std::size_t depth = 1 + pick(2 * json::kMaxParseDepth);
      std::string open, close;
      for (std::size_t d = 0; d < depth; ++d) {
        const bool array = d % 2 == 0;
        open += array ? "[" : "{\"k\":";
        close.insert(0, array ? "]" : "}");
      }
      out = open + out + close;
      break;
    }
  }
  return out;
}

TEST(JsonFuzz, MutantsNeverCrashAndVerdictsRepeat) {
  const metrics::RunResult& r = test::small_run();
  ASSERT_NE(r.metrics, nullptr);
  ASSERT_NE(r.trace, nullptr);
  const struct {
    const char* name;
    std::string text;
    Validator validate;
  } docs[] = {
      {"fig09 golden", test::golden_text("BENCH_fig09_vb_blocking.json"),
       exp::validate_result_json},
      {"fig11 golden", test::golden_text("BENCH_fig11_elasticity.json"),
       exp::validate_result_json},
      {"fig12 golden", test::golden_text("BENCH_fig12_memcached.json"),
       exp::validate_result_json},
      {"eo-metrics", obs::render(*r.metrics, "json"),
       obs::validate_metrics_json},
      {"eo-metrics-fleet", test::fleet_text(),
       obs::validate_fleet_metrics_json},
      {"chrome trace", trace::render(*r.trace, "json"),
       trace::validate_chrome_trace_json},
  };
  Rng rng(0x5eed0f0220ull);
  for (const auto& d : docs) {
    ASSERT_FALSE(d.text.empty()) << d.name;
    std::string err;
    ASSERT_TRUE(d.validate(d.text, &err)) << d.name << ": " << err;
    int accepted = 0;
    for (int i = 0; i < kMutantsPerDocument; ++i) {
      const std::string m = mutate(d.text, rng);
      json::Value v;
      std::string parse_err;
      const bool parsed = json::parse(m, &v, &parse_err);
      json::Value again;
      EXPECT_EQ(parsed, json::parse(m, &again, nullptr))
          << d.name << " #" << i;
      std::string err1, err2;
      const bool ok = d.validate(m, &err1);
      EXPECT_EQ(ok, d.validate(m, &err2)) << d.name << " #" << i;
      EXPECT_EQ(err1, err2) << d.name << " #" << i;
      // A validator never accepts what does not parse, and says why not.
      if (!parsed) {
        EXPECT_FALSE(ok) << d.name << " #" << i;
      }
      if (!ok) {
        EXPECT_FALSE(err1.empty()) << d.name << " #" << i;
      }
      accepted += ok ? 1 : 0;
    }
    // Most byte mutations break a document; a fuzz loop whose mutants all
    // pass would be testing nothing.
    EXPECT_LT(accepted, kMutantsPerDocument) << d.name;
  }
}

}  // namespace
}  // namespace eo
