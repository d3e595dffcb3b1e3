#include "obs/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/numeric.h"

namespace ireduct {
namespace obs {

std::string FormatDouble(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonToken(double v) {
  if (!std::isfinite(v)) return '"' + FormatDouble(v) + '"';
  return FormatDouble(v);
}

std::string EscapeJson(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
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
  return out;
}

void JsonWriter::Separate() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // key already wrote the ':' separator context
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_->push_back(',');
    has_element_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  Separate();
  out_->push_back('{');
  has_element_.push_back(false);
}

void JsonWriter::EndObject() {
  has_element_.pop_back();
  out_->push_back('}');
}

void JsonWriter::BeginArray() {
  Separate();
  out_->push_back('[');
  has_element_.push_back(false);
}

void JsonWriter::EndArray() {
  has_element_.pop_back();
  out_->push_back(']');
}

void JsonWriter::Key(std::string_view key) {
  Separate();
  out_->push_back('"');
  *out_ += EscapeJson(key);
  *out_ += "\":";
  pending_key_ = true;
}

void JsonWriter::String(std::string_view value) {
  Separate();
  out_->push_back('"');
  *out_ += EscapeJson(value);
  out_->push_back('"');
}

void JsonWriter::Double(double value) {
  Separate();
  *out_ += JsonToken(value);
}

void JsonWriter::Int(int64_t value) {
  Separate();
  *out_ += std::to_string(value);
}

void JsonWriter::UInt(uint64_t value) {
  Separate();
  *out_ += std::to_string(value);
}

void JsonWriter::Bool(bool value) {
  Separate();
  *out_ += value ? "true" : "false";
}

void JsonWriter::RawValue(std::string_view json) {
  Separate();
  *out_ += json;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::Member(std::string_view key) const {
  static const JsonValue kNull;
  const JsonValue* member = Find(key);
  return member != nullptr ? *member : kNull;
}

namespace {

Status FieldError(std::string_view name, const std::string& what) {
  return Status::InvalidArgument("field '" + std::string(name) + "' " + what);
}

}  // namespace

Result<uint64_t> JsonValue::AsUnsigned(std::string_view name,
                                       uint64_t max) const {
  uint64_t value = 0;
  if (is(Kind::kNumber) && ParseExact(text, &value) && value <= max) {
    return value;
  }
  return FieldError(name,
                    "must be an integer in [0, " + std::to_string(max) + "]");
}

Result<double> JsonValue::AsDouble(std::string_view name) const {
  if (is(Kind::kNumber)) return number;
  return FieldError(name, "must be a number");
}

Result<std::string> JsonValue::AsString(std::string_view name) const {
  if (is(Kind::kString)) return text;
  return FieldError(name, "must be a string");
}

Result<bool> JsonValue::AsBool(std::string_view name) const {
  if (is(Kind::kBool)) return boolean;
  return FieldError(name, "must be a boolean");
}

Result<std::vector<uint64_t>> JsonValue::AsUnsigneds(std::string_view name,
                                                     uint64_t max) const {
  if (!is(Kind::kArray)) return FieldError(name, "must be an array");
  std::vector<uint64_t> out;
  for (const JsonValue& element : array) {
    IREDUCT_ASSIGN_OR_RETURN(const uint64_t value,
                             element.AsUnsigned(name, max));
    out.push_back(value);
  }
  return out;
}

Result<std::vector<double>> JsonValue::AsDoubles(std::string_view name) const {
  if (!is(Kind::kArray)) return FieldError(name, "must be an array");
  std::vector<double> out;
  for (const JsonValue& element : array) {
    IREDUCT_ASSIGN_OR_RETURN(const double value, element.AsDouble(name));
    out.push_back(value);
  }
  return out;
}

Result<const JsonValue*> JsonValue::Get(std::string_view key, Kind k) const {
  static constexpr const char* kKinds[] = {"null",     "a boolean",
                                           "a number", "a string",
                                           "an array", "an object"};
  const JsonValue& member = Member(key);
  if (member.is(k)) return &member;
  return FieldError(key, std::string("must be ") + kKinds[static_cast<int>(k)]);
}

namespace {

// Recursive-descent parser over a string_view; every failure carries the
// byte offset it happened at.
class JsonParser {
 public:
  explicit JsonParser(std::string_view input) : input_(input) {}

  Result<JsonValue> Parse() {
    IREDUCT_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipSpace();
    if (pos_ != input_.size()) return Error("trailing characters");
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < input_.size() &&
           (input_[pos_] == ' ' || input_[pos_] == '\t' ||
            input_[pos_] == '\n' || input_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < input_.size() && input_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (input_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  // The four hex digits of a \u escape.
  Result<uint32_t> ParseHex4() {
    uint32_t code = 0;
    const char* const begin = input_.data() + pos_;
    if (pos_ + 4 > input_.size() ||
        std::from_chars(begin, begin + 4, code, 16).ptr != begin + 4) {
      return Error("bad \\u escape");
    }
    pos_ += 4;
    return code;
  }

  // Appends code point `code` (at most 0x10FFFF) as UTF-8: a lead byte
  // that marks how many continuation bytes follow, then those bytes.
  static void AppendUtf8(uint32_t code, std::string* out) {
    constexpr uint32_t kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    const int tail =
        code < 0x80 ? 0 : code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
    out->push_back(static_cast<char>(kLead[tail] | (code >> (6 * tail))));
    for (int i = tail - 1; i >= 0; --i) {
      out->push_back(static_cast<char>(0x80 | ((code >> (6 * i)) & 0x3F)));
    }
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Error("expected string");
    std::string out;
    while (pos_ < input_.size()) {
      const char c = input_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= input_.size()) return Error("dangling escape");
      const char esc = input_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          IREDUCT_ASSIGN_OR_RETURN(uint32_t code, ParseHex4());
          if (code >= 0xD800 && code <= 0xDBFF &&
              ConsumeLiteral("\\u")) {
            IREDUCT_ASSIGN_OR_RETURN(const uint32_t low, ParseHex4());
            if (low < 0xDC00 || low > 0xDFFF) return Error("lone surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xD800 && code <= 0xDFFF) {
            return Error("lone surrogate");
          }
          AppendUtf8(code, &out);
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= input_.size()) return Error("unexpected end of input");
    const char c = input_[pos_];
    JsonValue value;
    if ((c == '{' || c == '[') && ++depth_ > kMaxJsonDepth) {
      return Error("nesting deeper than " + std::to_string(kMaxJsonDepth));
    }
    if (c == '{') {
      ++pos_;
      value.kind = JsonValue::Kind::kObject;
      if (!Consume('}')) {
        do {
          SkipSpace();
          IREDUCT_ASSIGN_OR_RETURN(std::string key, ParseString());
          if (!Consume(':')) return Error("expected ':' after object key");
          IREDUCT_ASSIGN_OR_RETURN(JsonValue member, ParseValue());
          value.object.emplace_back(std::move(key), std::move(member));
        } while (Consume(','));
        if (!Consume('}')) return Error("expected ',' or '}' in object");
        // Sorted views keep an object of many members O(n log n).
        std::vector<std::string_view> keys;
        for (const auto& member : value.object) keys.push_back(member.first);
        std::sort(keys.begin(), keys.end());
        const auto repeated = std::adjacent_find(keys.begin(), keys.end());
        if (repeated != keys.end()) {
          return Error("repeated key '" + std::string(*repeated) + "'");
        }
      }
      --depth_;
      return value;
    }
    if (c == '[') {
      ++pos_;
      value.kind = JsonValue::Kind::kArray;
      if (!Consume(']')) {
        do {
          IREDUCT_ASSIGN_OR_RETURN(JsonValue element, ParseValue());
          value.array.push_back(std::move(element));
        } while (Consume(','));
        if (!Consume(']')) return Error("expected ',' or ']' in array");
      }
      --depth_;
      return value;
    }
    if (c == '"') {
      IREDUCT_ASSIGN_OR_RETURN(value.text, ParseString());
      value.kind = JsonValue::Kind::kString;
      return value;
    }
    if (ConsumeLiteral("true")) {
      value.kind = JsonValue::Kind::kBool;
      value.boolean = true;
      return value;
    }
    if (ConsumeLiteral("false")) {
      value.kind = JsonValue::Kind::kBool;
      return value;
    }
    if (ConsumeLiteral("null")) return value;
    const size_t start = pos_;
    pos_ = std::min(input_.find_first_not_of("0123456789+-.eE", start),
                    input_.size());
    if (pos_ == start) return Error("unexpected character");
    value.text = input_.substr(start, pos_ - start);
    char* end = nullptr;
    value.number = std::strtod(value.text.c_str(), &end);
    if (end != value.text.c_str() + value.text.size()) {
      return Error("malformed number");
    }
    if (!std::isfinite(value.number)) return Error("number out of range");
    value.kind = JsonValue::Kind::kNumber;
    return value;
  }

  std::string_view input_;
  size_t pos_ = 0;
  size_t depth_ = 0;  // arrays and objects open at pos_
};

}  // namespace

Result<JsonValue> JsonParse(std::string_view text) {
  return JsonParser(text).Parse();
}

}  // namespace obs
}  // namespace ireduct
