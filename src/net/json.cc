#include "net/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/string_util.h"

namespace declsched::net {

namespace {

constexpr int kMaxDepth = 64;

// The int64 range as doubles (both bounds are exact): converting a double
// to int64 is defined only inside [kInt64Min, kInt64End).
constexpr double kInt64Min = -9223372036854775808.0;
constexpr double kInt64End = 9223372036854775808.0;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    DS_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::ParseError("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Status::ParseError("JSON nested too deeply");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Status::ParseError("unexpected end of JSON");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        DS_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue::Str(std::move(s));
      }
      case 't':
        DS_RETURN_NOT_OK(Expect("true"));
        return JsonValue::Bool(true);
      case 'f':
        DS_RETURN_NOT_OK(Expect("false"));
        return JsonValue::Bool(false);
      case 'n':
        DS_RETURN_NOT_OK(Expect("null"));
        return JsonValue();
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
        return Status::ParseError(StrFormat("unexpected character '%c'", c));
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    ++pos_;  // consume '{'
    JsonValue obj = JsonValue::Object();
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      SkipWhitespace();
      if (Peek() != '"') return Status::ParseError("expected object key");
      DS_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (Peek() != ':') return Status::ParseError("expected ':' after key");
      ++pos_;
      DS_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      obj.Set(std::move(key), std::move(value));
      SkipWhitespace();
      const char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      return Status::ParseError("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    ++pos_;  // consume '['
    JsonValue arr = JsonValue::Array();
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      DS_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      arr.Append(std::move(value));
      SkipWhitespace();
      const char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      return Status::ParseError("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // consume '"'
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Status::ParseError("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          DS_ASSIGN_OR_RETURN(const int64_t code, ParseHex4());
          AppendUtf8(out, static_cast<uint32_t>(code));
          break;
        }
        default:
          return Status::ParseError("invalid escape in string");
      }
    }
    return Status::ParseError("unterminated string");
  }

  Result<int64_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Status::ParseError("truncated \\u escape");
    int64_t code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code += c - '0';
      } else if (c >= 'a' && c <= 'f') {
        code += c - 'a' + 10;
      } else if (c >= 'A' && c <= 'F') {
        code += c - 'A' + 10;
      } else {
        return Status::ParseError("invalid \\u escape");
      }
    }
    return code;
  }

  static void AppendUtf8(std::string& out, uint32_t code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    bool is_int = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_int = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") return Status::ParseError("bad number");
    errno = 0;
    char* end = nullptr;
    if (is_int) {
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return JsonValue::Int(v);
      }
      // int64 overflow falls through to double.
    }
    errno = 0;
    const double d = std::strtod(token.c_str(), &end);
    if (errno != 0 || end != token.c_str() + token.size() || !std::isfinite(d)) {
      return Status::ParseError(StrFormat("bad number '%s'", token.c_str()));
    }
    return JsonValue::Double(d);
  }

  Status Expect(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Status::ParseError("invalid JSON literal");
    }
    pos_ += literal.size();
    return Status::OK();
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Int(int64_t i) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_is_int_ = true;
  v.int_ = i;
  v.double_ = static_cast<double>(i);
  return v;
}

JsonValue JsonValue::Double(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_is_int_ = false;
  v.double_ = d;
  return v;
}

JsonValue JsonValue::Str(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

bool JsonValue::is_int64() const {
  if (kind_ != Kind::kNumber) return false;
  if (number_is_int_) return true;
  return double_ >= kInt64Min && double_ < kInt64End &&
         std::trunc(double_) == double_;
}

int64_t JsonValue::AsInt64() const {
  if (number_is_int_) return int_;
  if (std::isnan(double_)) return 0;
  if (double_ < kInt64Min) return std::numeric_limits<int64_t>::min();
  if (double_ >= kInt64End) return std::numeric_limits<int64_t>::max();
  return static_cast<int64_t>(double_);
}

double JsonValue::AsDouble() const {
  return number_is_int_ ? static_cast<double>(int_) : double_;
}

const JsonValue* JsonValue::Get(std::string_view key) const {
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::Set(std::string key, JsonValue v) {
  object_.emplace_back(std::move(key), std::move(v));
}

std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string JsonValue::Dump() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kNumber:
      if (number_is_int_) return std::to_string(int_);
      return StrFormat("%.17g", double_);
    case Kind::kString:
      return JsonQuote(string_);
    case Kind::kArray: {
      std::string out = "[";
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        out += array_[i].Dump();
      }
      out += ']';
      return out;
    }
    case Kind::kObject: {
      std::string out = "{";
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        out += JsonQuote(object_[i].first);
        out += ':';
        out += object_[i].second.Dump();
      }
      out += '}';
      return out;
    }
  }
  return "null";
}

}  // namespace declsched::net
