#include "common/json.h"

#include <cassert>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace xfrag::json {

bool Value::AsBool() const {
  XFRAG_CHECK(kind_ == Kind::kBool);
  return bool_;
}

double Value::AsDouble() const {
  XFRAG_CHECK(kind_ == Kind::kNumber);
  return number_;
}

int64_t Value::AsInt() const {
  XFRAG_CHECK(kind_ == Kind::kNumber);
  return integral_ ? int_ : static_cast<int64_t>(number_);
}

const std::string& Value::AsString() const {
  XFRAG_CHECK(kind_ == Kind::kString);
  return string_;
}

size_t Value::size() const {
  if (kind_ == Kind::kArray) return array_.size();
  if (kind_ == Kind::kObject) return object_.size();
  return 0;
}

const Value& Value::operator[](size_t i) const {
  XFRAG_CHECK(kind_ == Kind::kArray && i < array_.size());
  return array_[i];
}

Value& Value::operator[](size_t i) {
  return const_cast<Value&>(std::as_const(*this)[i]);
}

Value& Value::Append(Value element) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  XFRAG_CHECK(kind_ == Kind::kArray);
  array_.push_back(std::move(element));
  return *this;
}

Value& Value::Set(std::string key, Value value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  XFRAG_CHECK(kind_ == Kind::kObject);
  for (auto& member : object_) {
    if (member.first == key) {
      member.second = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Value* Value::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& member : object_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

Value* Value::Find(std::string_view key) {
  return const_cast<Value*>(std::as_const(*this).Find(key));
}

bool Value::Remove(std::string_view key) {
  if (kind_ != Kind::kObject) return false;
  for (auto it = object_.begin(); it != object_.end(); ++it) {
    if (it->first == key) {
      object_.erase(it);
      return true;
    }
  }
  return false;
}

bool Value::operator==(const Value& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return bool_ == other.bool_;
    case Kind::kNumber:
      if (integral_ && other.integral_) {
        // Same bit pattern, and (when the sign interpretations could
        // disagree) a non-negative value.
        return int_ == other.int_ &&
               (unsigned_ == other.unsigned_ || int_ >= 0);
      }
      return number_ == other.number_;
    case Kind::kString:
      return string_ == other.string_;
    case Kind::kArray:
      return array_ == other.array_;
    case Kind::kObject:
      return object_ == other.object_;
  }
  return false;
}

void AppendQuoted(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

namespace {

void AppendNumber(std::string* out, double number, bool integral,
                  bool is_unsigned, int64_t int_value) {
  char buf[32];
  if (integral && is_unsigned) {
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf),
                                   static_cast<uint64_t>(int_value));
    XFRAG_CHECK(ec == std::errc());
    out->append(buf, end);
    return;
  }
  if (integral) {
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), int_value);
    XFRAG_CHECK(ec == std::errc());
    out->append(buf, end);
    return;
  }
  // Shortest representation that round-trips the double exactly.
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), number);
  XFRAG_CHECK(ec == std::errc());
  out->append(buf, end);
}

void AppendIndent(std::string* out, int indent, int depth) {
  out->push_back('\n');
  out->append(static_cast<size_t>(indent) * depth, ' ');
}

}  // namespace

void Value::DumpTo(std::string* out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      return;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      AppendNumber(out, number_, integral_, unsigned_, int_);
      return;
    case Kind::kString:
      AppendQuoted(out, string_);
      return;
    case Kind::kArray: {
      if (array_.empty()) {
        *out += "[]";
        return;
      }
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        if (indent >= 0) AppendIndent(out, indent, depth + 1);
        array_[i].DumpTo(out, indent, depth + 1);
      }
      if (indent >= 0) AppendIndent(out, indent, depth);
      out->push_back(']');
      return;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        *out += "{}";
        return;
      }
      out->push_back('{');
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out->push_back(',');
        if (indent >= 0) AppendIndent(out, indent, depth + 1);
        AppendQuoted(out, object_[i].first);
        out->push_back(':');
        if (indent >= 0) out->push_back(' ');
        object_[i].second.DumpTo(out, indent, depth + 1);
      }
      if (indent >= 0) AppendIndent(out, indent, depth);
      out->push_back('}');
      return;
    }
  }
}

std::string Value::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

namespace {

// Recursive-descent parser over the input span; `pos` always points at the
// next unconsumed byte, so a failure's offset is simply the current `pos`.
class Parser {
 public:
  Parser(std::string_view text, size_t* error_offset)
      : text_(text), error_offset_(error_offset) {}

  StatusOr<Value> Run() {
    SkipWhitespace();
    Value root;
    XFRAG_RETURN_NOT_OK(ParseValue(&root, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON value");
    }
    return root;
  }

 private:
  Status Fail(const std::string& message) {
    if (error_offset_ != nullptr) *error_offset_ = pos_;
    return Status::ParseError(
        StrFormat("%s at offset %zu", message.c_str(), pos_));
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWhitespace() {
    while (!AtEnd()) {
      char c = Peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Status ParseValue(Value* out, int depth) {
    if (depth > kMaxParseDepth) return Fail("nesting depth limit exceeded");
    if (AtEnd()) return Fail("unexpected end of input");
    switch (Peek()) {
      case 'n':
        if (!ConsumeLiteral("null")) return Fail("invalid literal");
        *out = Value();
        return Status::OK();
      case 't':
        if (!ConsumeLiteral("true")) return Fail("invalid literal");
        *out = Value(true);
        return Status::OK();
      case 'f':
        if (!ConsumeLiteral("false")) return Fail("invalid literal");
        *out = Value(false);
        return Status::OK();
      case '"':
        return ParseString(out);
      case '[':
        return ParseArray(out, depth);
      case '{':
        return ParseObject(out, depth);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseArray(Value* out, int depth) {
    ++pos_;  // '['
    *out = Value::Array();
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      Value element;
      XFRAG_RETURN_NOT_OK(ParseValue(&element, depth + 1));
      out->Append(std::move(element));
      SkipWhitespace();
      if (AtEnd()) return Fail("unterminated array");
      char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Status::OK();
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  Status ParseObject(Value* out, int depth) {
    ++pos_;  // '{'
    *out = Value::Object();
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Fail("expected object key");
      Value key;
      XFRAG_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      if (AtEnd() || Peek() != ':') return Fail("expected ':' after key");
      ++pos_;
      SkipWhitespace();
      Value member;
      XFRAG_RETURN_NOT_OK(ParseValue(&member, depth + 1));
      out->Set(key.AsString(), std::move(member));
      SkipWhitespace();
      if (AtEnd()) return Fail("unterminated object");
      char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Status::OK();
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_ + i];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("invalid hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = value;
    return Status::OK();
  }

  static void AppendUtf8(std::string* out, uint32_t cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseString(Value* out) {
    ++pos_;  // '"'
    std::string result;
    while (true) {
      if (AtEnd()) return Fail("unterminated string");
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        *out = Value(std::move(result));
        return Status::OK();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        result.push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;  // '\'
      if (AtEnd()) return Fail("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          result.push_back('"');
          break;
        case '\\':
          result.push_back('\\');
          break;
        case '/':
          result.push_back('/');
          break;
        case 'n':
          result.push_back('\n');
          break;
        case 't':
          result.push_back('\t');
          break;
        case 'r':
          result.push_back('\r');
          break;
        case 'b':
          result.push_back('\b');
          break;
        case 'f':
          result.push_back('\f');
          break;
        case 'u': {
          uint32_t cp = 0;
          XFRAG_RETURN_NOT_OK(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a \uDC00-\uDFFF low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Fail("lone high surrogate in \\u escape");
            }
            pos_ += 2;
            uint32_t low = 0;
            XFRAG_RETURN_NOT_OK(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("invalid low surrogate in \\u escape");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("lone low surrogate in \\u escape");
          }
          AppendUtf8(&result, cp);
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    }
  }

  Status ParseNumber(Value* out) {
    size_t start = pos_;
    bool integral = true;
    if (!AtEnd() && Peek() == '-') ++pos_;
    if (AtEnd() || Peek() < '0' || Peek() > '9') {
      pos_ = start;
      return Fail("invalid value");
    }
    // Leading zero must not be followed by more digits.
    if (Peek() == '0') {
      ++pos_;
      if (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
        return Fail("leading zero in number");
      }
    } else {
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && Peek() == '.') {
      integral = false;
      ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Fail("expected digit after decimal point");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Fail("expected digit in exponent");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    std::string_view token = text_.substr(start, pos_ - start);
    if (integral) {
      int64_t value = 0;
      auto [end, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && end == token.data() + token.size()) {
        *out = Value(value);
        return Status::OK();
      }
      // Out of int64 range: fall through to double.
    }
    double value = 0.0;
    auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || end != token.data() + token.size()) {
      pos_ = start;
      return Fail("invalid number");
    }
    *out = Value(value);
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t* error_offset_;
};

}  // namespace

StatusOr<Value> Parse(std::string_view text, size_t* error_offset) {
  return Parser(text, error_offset).Run();
}

}  // namespace xfrag::json
