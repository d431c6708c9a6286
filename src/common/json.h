// A small dependency-free JSON value tree with a writer and a strict
// RFC 8259 parser — the wire format of the xfragd serving subsystem
// (src/server) and the BENCH_*.json emitters. Design points:
//
//  * one Value type holding null/bool/number/string/array/object; objects
//    preserve insertion order so rendered responses are deterministic;
//  * numbers remember whether they were integral, so node ids and counters
//    round-trip as "42", never "42.0" (doubles use shortest-round-trip
//    formatting via std::to_chars);
//  * Parse reports the byte offset of the first error — the server's
//    structured 400 bodies ({"error": ..., "offset": N}) depend on it.

#ifndef XFRAG_COMMON_JSON_H_
#define XFRAG_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace xfrag::json {

/// \brief One JSON value (recursively, a whole document).
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Constructs null.
  Value() = default;

  Value(bool b) : kind_(Kind::kBool), bool_(b) {}  // NOLINT(runtime/explicit)
  Value(int i) : Value(static_cast<int64_t>(i)) {}  // NOLINT
  Value(int64_t i)  // NOLINT(runtime/explicit)
      : kind_(Kind::kNumber), number_(static_cast<double>(i)), integral_(true),
        int_(i) {}
  Value(uint64_t u)  // NOLINT(runtime/explicit)
      : kind_(Kind::kNumber), number_(static_cast<double>(u)), integral_(true),
        unsigned_(true), int_(static_cast<int64_t>(u)) {}
  Value(double d) : kind_(Kind::kNumber), number_(d) {}  // NOLINT
  Value(std::string s)  // NOLINT(runtime/explicit)
      : kind_(Kind::kString), string_(std::move(s)) {}
  Value(std::string_view s) : kind_(Kind::kString), string_(s) {}  // NOLINT
  Value(const char* s) : kind_(Kind::kString), string_(s) {}  // NOLINT

  /// Factories for the container kinds (an empty `{}`/`[]` is not expressible
  /// through the converting constructors).
  static Value Array() {
    Value v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static Value Object() {
    Value v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }
  /// True for numbers written without a fraction or exponent (and for values
  /// constructed from C++ integers).
  bool is_integral() const { return kind_ == Kind::kNumber && integral_; }

  /// Typed accessors. Calling one on the wrong kind is a programming error.
  bool AsBool() const;
  double AsDouble() const;
  int64_t AsInt() const;
  const std::string& AsString() const;

  /// Elements of an array / members of an object; 0 for scalars.
  size_t size() const;

  /// Array element access (requires is_array()).
  const Value& operator[](size_t i) const;
  Value& operator[](size_t i);
  const std::vector<Value>& items() const { return array_; }

  /// \brief Appends to an array (a null Value becomes an array first).
  /// Returns *this for chaining.
  Value& Append(Value element);

  /// \brief Sets `key` in an object (a null Value becomes an object first).
  /// An existing key is overwritten in place, preserving its position.
  Value& Set(std::string key, Value value);

  /// Object member lookup; nullptr when absent (or not an object). The
  /// mutable form lets a caller move a member out of a parsed document.
  const Value* Find(std::string_view key) const;
  Value* Find(std::string_view key);

  /// \brief Removes `key` from an object, preserving the order of the
  /// remaining members. Returns whether the key was present (false also for
  /// non-objects).
  bool Remove(std::string_view key);
  const std::vector<std::pair<std::string, Value>>& members() const {
    return object_;
  }

  /// \brief Renders the value as JSON text. `indent` < 0 produces the compact
  /// single-line form; `indent` >= 0 pretty-prints with that many spaces per
  /// nesting level.
  std::string Dump(int indent = -1) const;

  bool operator==(const Value& other) const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  bool integral_ = false;
  /// int_ holds a uint64_t bit pattern (counters above INT64_MAX must not
  /// render with a sign flip).
  bool unsigned_ = false;
  int64_t int_ = 0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// \brief Appends `s` to `out` as a quoted, escaped JSON string literal.
void AppendQuoted(std::string* out, std::string_view s);

/// Nesting depth beyond which Parse rejects the input (stack safety).
inline constexpr int kMaxParseDepth = 128;

/// \brief Parses one JSON document (any value kind at the top level).
///
/// Strict: no trailing garbage, no comments, no trailing commas, strings
/// must be valid escapes (\uXXXX surrogate pairs are combined into UTF-8).
/// On failure returns ParseError and, when `error_offset` is non-null, the
/// byte offset at which parsing failed.
StatusOr<Value> Parse(std::string_view text, size_t* error_offset = nullptr);

}  // namespace xfrag::json

#endif  // XFRAG_COMMON_JSON_H_
