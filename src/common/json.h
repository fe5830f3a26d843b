// Dependency-free JSON support shared by the document exporters and their
// validators.
//
//  * `Value` + `parse` — a full-grammar recursive-descent parser producing a
//    small DOM, so an emitted file is known well-formed before a human or a
//    plotting script ever opens it.
//  * `Shape` + `check` — one declarative table per document (its members
//    and their types, array elements, the schema header, and a few named
//    rules on values), kept next to the document's writer, and the one
//    walker that checks a parsed document against it. Every validator is a
//    `check_text` call on its table.
//  * `Writer` — a streaming serializer with comma/nesting bookkeeping and
//    deterministic number formatting (shortest round-trip via to_chars), so
//    identical inputs render byte-identical documents; `write_file` is the
//    validated file write every exporter ends in.
#pragma once

#include <cstdint>
#include <memory>
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

/// Sets `*err` (when non-null) to `msg` and returns false, so a check can
/// `return fail(err, "...")`.
[[nodiscard]] bool fail(std::string* err, const std::string& msg);

// --- Shapes: one table per document, walked by `check` ---------------------

struct Member;
/// A named check on a value beyond its type (a bound, a count, an order, a
/// sum), run once the value's shape holds; fails by returning false with
/// `*why` set.
using Rule = bool (*)(const Value& v, std::string* why);
bool non_empty(const Value& v, std::string* why);  ///< strings and arrays
bool positive(const Value& v, std::string* why);
bool non_negative(const Value& v, std::string* why);

/// What `check` expects of one value: its type, an object's members, an
/// array's elements, and a rule run last.
struct Shape {
  Shape(Value::Type t = Value::kNull,  // NOLINT(google-explicit-constructor)
        Rule r = nullptr)
      : type(t), rule(r) {}
  Value::Type type;
  Rule rule;
  std::vector<Member> members;  ///< objects; unlisted members go unchecked
  std::shared_ptr<const Shape> each;  ///< elements, or unlisted members
  const char* schema = nullptr;  ///< roots: "schema" and "schema_version"
  int version = 0;
};

/// An object member; a bare key is a required number, as most members are.
struct Member {
  Member(const char* k)  // NOLINT(google-explicit-constructor)
      : key(k), shape(Value::kNumber) {}
  Member(const char* k, Shape s, bool opt = false)
      : key(k), shape(std::move(s)), optional(opt) {}
  std::string key;
  Shape shape;
  bool optional = false;
};
inline constexpr bool kOptional = true;

inline Shape boolean() { return {Value::kBool}; }
inline Shape number(Rule rule = nullptr) { return {Value::kNumber, rule}; }
inline Shape text(Rule rule = nullptr) { return {Value::kString, rule}; }
Shape array_of(Shape each, Rule rule = nullptr);
Shape object(std::vector<Member> members, Rule rule = nullptr);
/// An object whose members beyond `members` all match `each`.
Shape map_of(Shape each, std::vector<Member> members = {});
Shape document(const char* schema, int version, std::vector<Member> members,
               Rule rule = nullptr);

/// Checks `v` against `shape`. A failure names the value by its path:
/// "sweeps[0].cells[3]: missing number 'exec_ms'" (built only on failure).
[[nodiscard]] bool check(const Value& v, const Shape& shape, std::string* err);
/// Parses `text`, then checks it.
[[nodiscard]] bool check_text(const std::string& text, const Shape& shape,
                              std::string* err);

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
