// Minimal JSON document model and recursive-descent parser.
//
// The observability plane emits JSON documents (the /switchz audit
// trail, the /requestz waterfall) that the tests read back to assert
// their well-formedness. This is a small, dependency-free DOM: numbers
// are doubles, objects preserve insertion order, and parse errors report
// byte offsets. It is not a streaming parser and not built for huge
// documents; the pages it reads are a few hundred kilobytes at most.

#ifndef LATEST_UTIL_JSON_H_
#define LATEST_UTIL_JSON_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace latest::util {

/// One JSON value. Objects keep their members in document order (the
/// exposition formats are deterministic, so round-trips stay diffable).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed reads with fallbacks (never throw; wrong-type reads return the
  /// fallback).
  bool AsBool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double AsDouble(double fallback = 0.0) const {
    return is_number() ? number_ : fallback;
  }
  int64_t AsInt(int64_t fallback = 0) const {
    return is_number() ? static_cast<int64_t>(number_) : fallback;
  }
  const std::string& AsString() const { return string_; }

  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }
  size_t size() const {
    return is_array() ? items_.size() : is_object() ? members_.size() : 0;
  }

  /// Object member lookup; null when absent or not an object. The
  /// returned pointer borrows from this value.
  const JsonValue* Find(std::string_view key) const;

  /// Convenience: Find(key), or a shared null value (so chained lookups
  /// never dereference nullptr): `doc.Get("a").Get("b").AsInt()`.
  const JsonValue& Get(std::string_view key) const;

  /// Array element, or the shared null value when out of range.
  const JsonValue& At(size_t index) const;

  // Construction (used by the parser and by tests).
  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool v);
  static JsonValue MakeNumber(double v);
  static JsonValue MakeString(std::string v);
  static JsonValue MakeArray(std::vector<JsonValue> items);
  static JsonValue MakeObject(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses one JSON document. Trailing whitespace is allowed; trailing
/// garbage is an InvalidArgument carrying the byte offset.
Result<JsonValue> ParseJson(std::string_view text);

/// Escapes `value` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters; no surrounding quotes).
std::string JsonEscape(std::string_view value);

}  // namespace latest::util

#endif  // LATEST_UTIL_JSON_H_
