// Dependency-free JSON support shared by the document exporters and their
// validators.
//
//  * `Value` + `parse` — a full-grammar recursive-descent parser producing a
//    small DOM, which every structural validator walks, so an emitted file is
//    known well-formed before a human or a plotting script ever opens it.
//  * `fail` / `require_number` / `require_schema` — the checks every
//    validator shares, so all report a missing field or schema alike.
//  * `Writer` — a streaming serializer with comma/nesting bookkeeping and
//    deterministic number formatting (shortest round-trip via to_chars), so
//    identical inputs render byte-identical documents; `write_file` is the
//    validated file write every exporter ends in.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace eo::json {

struct Value {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = kNull;
  std::string str;                                  // kString
  double num = 0;                                   // kNumber
  bool b = false;                                   // kBool
  std::vector<Value> items;                         // kArray
  std::vector<std::pair<std::string, Value>> fields;  // kObject

  /// Object field lookup; null when absent or not an object.
  const Value* get(const std::string& key) const;

  bool is_string() const { return type == kString; }
  bool is_number() const { return type == kNumber; }
  bool is_object() const { return type == kObject; }
  bool is_array() const { return type == kArray; }
  bool is_bool() const { return type == kBool; }
};

/// Deepest array/object nesting `parse` accepts. The parser recurses once per
/// level, so deeper input is rejected as a parse error instead of
/// overflowing the stack.
inline constexpr int kMaxParseDepth = 512;

/// Parses `text` as one JSON document (no trailing garbage). Returns false
/// and fills `err` (if non-null) with a position-annotated reason on failure.
bool parse(const std::string& text, Value* out, std::string* err);

/// Escapes a string for embedding inside a JSON string literal (no quotes).
std::string escape(const std::string& s);

// Validator helpers. Each fails by setting `*err` (when non-null) and
// returning false, so a validator can `return fail(err, "...")`.
[[nodiscard]] bool fail(std::string* err, const std::string& msg);
/// Fails with "missing numeric field '<key>'" unless `obj[key]` is a number.
[[nodiscard]] bool require_number(const Value& obj, const char* key,
                                  std::string* err);
/// Fails unless `doc` carries `"schema": name` and `"schema_version":
/// version`; messages start with `prefix` (an embedded section's name).
[[nodiscard]] bool require_schema(const Value& doc, const char* name,
                                  int version, std::string* err,
                                  const std::string& prefix = "");

/// A whole-document check, e.g. `obs::validate_metrics_json`.
using TextValidator = bool (*)(const std::string& text, std::string* err);

/// The one file write of every exporter: runs `validate` on `text` (when
/// non-null), then writes `text` to `path`, truncating. Fails with the
/// validator's reason, "cannot open <path> for writing" or "write to <path>
/// failed".
[[nodiscard]] bool write_file(const std::string& path, const std::string& text,
                              TextValidator validate, std::string* err);

/// Streaming JSON writer. The caller drives the document shape; the writer
/// inserts commas, quotes keys, escapes strings, and formats numbers
/// deterministically. Misuse (a bare value where a key is required) is a
/// programming error and only detected by the validators downstream.
class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Starts an object field; must be followed by exactly one value (or
  /// container). Returns *this so `w.key("x").value(1)` chains.
  Writer& key(const std::string& k);

  void value(const std::string& s);
  void value(const char* s);
  void value(double d);
  void value(std::int64_t v);
  void value(std::uint64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);
  void null();

  // One-call object fields.
  template <typename T>
  void field(const std::string& k, const T& v) {
    key(k);
    value(v);
  }

 private:
  void sep();

  std::ostream& os_;
  struct Level {
    bool array = false;
    bool first = true;
  };
  std::vector<Level> stack_;
  bool pending_value_ = false;  // a key was just written
};

}  // namespace eo::json
