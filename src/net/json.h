// Minimal JSON value, parser, and writer for the HTTP/JSON surface.
//
// Scope: exactly what the front door and load generator need — parse a
// request body into a tree, navigate it with typed accessors, and build
// response bodies. UTF-8 passes through untouched; \uXXXX escapes decode to
// UTF-8; numbers are int64 when they round-trip exactly, double otherwise.
// Depth is bounded so hostile bodies cannot recurse the stack out.

#ifndef DECLSCHED_NET_JSON_H_
#define DECLSCHED_NET_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace declsched::net {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue Bool(bool b);
  static JsonValue Int(int64_t v);
  static JsonValue Double(double v);
  static JsonValue Str(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  /// Strict parse of a complete JSON document (trailing garbage is an
  /// error). ParseError on malformed input.
  static Result<JsonValue> Parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// A number whose value is a whole int64: every integer literal in
  /// range, and doubles such as 2.0 or 1e3. False for 1.5, 1e30, and
  /// integer literals past int64 (the parser keeps those as doubles).
  bool is_int64() const;

  bool AsBool() const { return bool_; }
  /// The number as int64: exact when is_int64(); otherwise truncated
  /// toward zero and clamped to the int64 range (NaN reads 0).
  int64_t AsInt64() const;
  double AsDouble() const;
  const std::string& AsString() const { return string_; }

  // --- arrays ---
  size_t size() const { return array_.size(); }
  const JsonValue& at(size_t i) const { return array_[i]; }
  std::vector<JsonValue>& items() { return array_; }
  const std::vector<JsonValue>& items() const { return array_; }
  void Append(JsonValue v) { array_.push_back(std::move(v)); }

  // --- objects ---
  /// Member lookup; null if absent or not an object.
  const JsonValue* Get(std::string_view key) const;
  void Set(std::string key, JsonValue v);
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return object_;
  }

  /// Compact serialization (no whitespace).
  std::string Dump() const;

 private:
  Kind kind_;
  bool bool_ = false;
  bool number_is_int_ = true;
  int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Serializes a string with JSON escaping, including the quotes.
std::string JsonQuote(std::string_view s);

}  // namespace declsched::net

#endif  // DECLSCHED_NET_JSON_H_
