#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <utility>

namespace mcb {
namespace {

const Json kNull{};
const std::string kEmptyString;
const JsonArray kEmptyArray;
const JsonObject kEmptyObject;

bool is_json_space(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

bool is_number_char(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+';
}

/// True when all of [first, last) is one integer that fits T.
template <typename T>
bool whole_integer(const char* first, const char* last, T& value) {
  const auto [end, ec] = std::from_chars(first, last, value);
  return ec == std::errc() && end == last;
}

/// Parses one number token (sign included) as strtod would, keeping an
/// integer literal (`integral`: sign and digits only) that fits int64_t
/// or uint64_t exact, and stores it into `out` unless that is null.
/// False if the token is not one whole number.
bool parse_number_token(std::string_view token, bool integral, JsonNumber* out) {
  // from_chars takes no leading '+'; strtod does, but not "+-1".
  std::string_view body = token;
  if (!body.empty() && body.front() == '+') {
    body.remove_prefix(1);
    if (!body.empty() && body.front() == '-') return false;
  }
  const char* first = body.data();
  const char* last = body.data() + body.size();
  if (integral) {
    std::int64_t integer = 0;
    std::uint64_t big = 0;  // only above INT64_MAX, since int64_t is tried first
    if (whole_integer(first, last, integer)) {
      if (out != nullptr) *out = integer;
      return true;
    }
    if (whole_integer(first, last, big)) {
      if (out != nullptr) *out = big;
      return true;
    }
  }
  double value = 0.0;
  const auto [end, ec] = std::from_chars(first, last, value);
  if (end != last || (ec != std::errc() && ec != std::errc::result_out_of_range)) return false;
  if (out == nullptr) return true;
  if (ec == std::errc::result_out_of_range) {
    // Overflow or underflow: strtod's rounding (+/-inf, 0 or the nearest
    // subnormal), on a copy, since strtod needs a terminated string.
    value = std::strtod(std::string(token).c_str(), nullptr);
  }
  *out = value;
  return true;
}

/// Sorts members by key, keeping the first of repeated keys.
void normalize(JsonObject& members) {
  const auto by_key = [](const auto& a, const auto& b) { return a.first < b.first; };
  if (!std::is_sorted(members.begin(), members.end(), by_key)) {
    std::stable_sort(members.begin(), members.end(), by_key);
  }
  members.erase(std::unique(members.begin(), members.end(),
                            [](const auto& a, const auto& b) { return a.first == b.first; }),
                members.end());
}

JsonObject::const_iterator find_member(const JsonObject& members, std::string_view key) {
  const auto it = std::lower_bound(
      members.begin(), members.end(), key,
      [](const auto& member, std::string_view k) { return member.first < k; });
  return it != members.end() && it->first == key ? it : members.end();
}

/// True when `d` is exactly the integer `i`: integral and inside I.
template <typename I>
bool double_is_integer(double d, I i) {
  constexpr double kLow = std::is_signed_v<I> ? -0x1p63 : 0.0;
  constexpr double kHigh = std::is_signed_v<I> ? 0x1p63 : 0x1p64;
  return d >= kLow && d < kHigh && std::trunc(d) == d && static_cast<I>(d) == i;
}

bool same_number(const JsonNumber& a, const JsonNumber& b) {
  return std::visit(
      [](auto x, auto y) {
        constexpr bool kIntegerX = std::is_integral_v<decltype(x)>;
        constexpr bool kIntegerY = std::is_integral_v<decltype(y)>;
        if constexpr (kIntegerX && kIntegerY) {
          return std::cmp_equal(x, y);
        } else if constexpr (kIntegerX) {
          return double_is_integer(y, x);
        } else if constexpr (kIntegerY) {
          return double_is_integer(x, y);
        } else {
          return x == y;
        }
      },
      a, b);
}

/// One value from `reader` into `out` (recursion bounded by kMaxDepth).
bool read_value(JsonReader& reader, Json& out) {
  Json::Type type = Json::Type::Null;
  if (!reader.peek(type)) return false;
  switch (type) {
    case Json::Type::Null:
      out = nullptr;
      return reader.read_null();
    case Json::Type::Bool: {
      bool b = false;
      if (!reader.read_bool(b)) return false;
      out = b;
      return true;
    }
    case Json::Type::Number: {
      JsonNumber n;
      if (!reader.read_number(&n)) return false;
      out = n;
      return true;
    }
    case Json::Type::String: {
      std::string s;
      if (!reader.read_string(&s)) return false;
      out = std::move(s);
      return true;
    }
    case Json::Type::Array: {
      if (!reader.begin_array()) return false;
      JsonArray elements;
      while (reader.next_element()) {
        if (!read_value(reader, elements.emplace_back())) return false;
      }
      if (!reader.ok()) return false;
      out = std::move(elements);
      return true;
    }
    case Json::Type::Object: {
      if (!reader.begin_object()) return false;
      JsonObject members;
      std::string key;
      while (reader.next_member(&key)) {
        if (!read_value(reader, members.emplace_back(std::move(key), Json()).second)) {
          return false;
        }
      }
      if (!reader.ok()) return false;
      out = std::move(members);
      return true;
    }
  }
  return false;
}

template <typename I>
void write_integer(std::string& out, I integer) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), integer);
  out.append(buf, end);
}

void write_number(std::string& out, const JsonNumber& number) {
  if (const auto* i = std::get_if<std::int64_t>(&number)) return write_integer(out, *i);
  if (const auto* u = std::get_if<std::uint64_t>(&number)) return write_integer(out, *u);
  char buf[40];
  const double v = std::get<double>(number);
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
  } else if (std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
  } else {
    out += "null";  // JSON has no Inf/NaN
  }
}

}  // namespace

double json_number_as_double(const JsonNumber& number) noexcept {
  return std::visit([](auto value) { return static_cast<double>(value); }, number);
}

std::int64_t json_number_as_int(const JsonNumber& number) noexcept {
  if (const auto* i = std::get_if<std::int64_t>(&number)) return *i;
  if (const auto* u = std::get_if<std::uint64_t>(&number)) {
    return std::in_range<std::int64_t>(*u) ? static_cast<std::int64_t>(*u) : INT64_MAX;
  }
  // llround is unspecified past int64_t; saturate there as above.
  const double value = std::get<double>(number);
  if (value >= 0x1p63) return INT64_MAX;
  if (value <= -0x1p63) return INT64_MIN;
  return static_cast<std::int64_t>(std::llround(value));
}

// ------------------------------------------------------------- JsonReader

bool JsonReader::fail(std::string_view what) {
  if (error_.empty()) {
    error_.assign(what);
    error_ += " at offset ";
    error_ += std::to_string(pos_);
  }
  return false;
}

bool JsonReader::peek(Json::Type& type) {
  if (!ok()) return false;
  skip_space();
  if (pos_ >= text_.size()) return fail("unexpected end of input");
  switch (text_[pos_]) {
    case '{': type = Json::Type::Object; break;
    case '[': type = Json::Type::Array; break;
    case '"': type = Json::Type::String; break;
    case 't':
    case 'f': type = Json::Type::Bool; break;
    case 'n': type = Json::Type::Null; break;
    default: type = Json::Type::Number; break;
  }
  return true;
}

bool JsonReader::literal(std::string_view word) {
  if (!ok()) return false;
  if (text_.substr(pos_, word.size()) != word) return fail("invalid literal");
  pos_ += word.size();
  return true;
}

bool JsonReader::read_null() { return literal("null"); }

bool JsonReader::read_bool(bool& out) {
  out = pos_ < text_.size() && text_[pos_] == 't';
  return literal(out ? "true" : "false");
}

bool JsonReader::read_number(JsonNumber* out) {
  if (!ok()) return false;
  const std::size_t start = pos_;
  if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
  const std::size_t digits = pos_;
  while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
  const bool integral = pos_ > digits && (pos_ == text_.size() || !is_number_char(text_[pos_]));
  while (pos_ < text_.size() && is_number_char(text_[pos_])) ++pos_;
  const std::string_view token = text_.substr(start, pos_ - start);
  if (pos_ == start || !parse_number_token(token, integral, out)) return fail("invalid number");
  return true;
}

bool JsonReader::read_string(std::string* out) {
  if (!ok()) return false;
  if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected string");
  ++pos_;
  if (out != nullptr) out->clear();
  for (;;) {
    // The run up to the next quote or escape, in one step.
    std::size_t run = pos_;
    while (run < text_.size() && text_[run] != '"' && text_[run] != '\\') ++run;
    if (out != nullptr) out->append(text_.data() + pos_, run - pos_);
    pos_ = run;
    if (pos_ >= text_.size()) return fail("unterminated string");
    if (text_[pos_++] == '"') return true;
    if (pos_ >= text_.size()) return fail("bad escape");
    char decoded[3] = {};
    std::size_t length = 1;
    switch (text_[pos_++]) {
      case '"': decoded[0] = '"'; break;
      case '\\': decoded[0] = '\\'; break;
      case '/': decoded[0] = '/'; break;
      case 'b': decoded[0] = '\b'; break;
      case 'f': decoded[0] = '\f'; break;
      case 'n': decoded[0] = '\n'; break;
      case 'r': decoded[0] = '\r'; break;
      case 't': decoded[0] = '\t'; break;
      case 'u': {
        if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return fail("bad \\u escape");
        }
        // UTF-8 encode (BMP only).
        if (code < 0x80) {
          decoded[0] = static_cast<char>(code);
        } else if (code < 0x800) {
          decoded[0] = static_cast<char>(0xC0 | (code >> 6));
          decoded[1] = static_cast<char>(0x80 | (code & 0x3F));
          length = 2;
        } else {
          decoded[0] = static_cast<char>(0xE0 | (code >> 12));
          decoded[1] = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          decoded[2] = static_cast<char>(0x80 | (code & 0x3F));
          length = 3;
        }
        break;
      }
      default: return fail("unknown escape");
    }
    if (out != nullptr) out->append(decoded, length);
  }
}

bool JsonReader::open(char bracket) {
  if (!ok()) return false;
  if (pos_ >= text_.size() || text_[pos_] != bracket) {
    return fail(bracket == '[' ? "expected '['" : "expected '{'");
  }
  if (depth_ >= kMaxDepth) return fail("nesting too deep");
  ++pos_;
  fresh_ |= std::uint64_t{1} << depth_;
  ++depth_;
  return true;
}

bool JsonReader::begin_array() { return open('['); }
bool JsonReader::begin_object() { return open('{'); }

void JsonReader::skip_space() {
  while (pos_ < text_.size() && is_json_space(text_[pos_])) ++pos_;
}

bool JsonReader::next_item(char close) {
  if (!ok() || depth_ == 0) return false;
  const std::uint64_t bit = std::uint64_t{1} << (depth_ - 1);
  skip_space();
  if ((fresh_ & bit) != 0) {
    fresh_ &= ~bit;
    if (pos_ < text_.size() && text_[pos_] == close) {
      ++pos_;
      --depth_;
      return false;
    }
    return true;
  }
  if (pos_ >= text_.size()) {
    return fail(close == ']' ? "unterminated array" : "unterminated object");
  }
  const char c = text_[pos_++];
  if (c == close) {
    --depth_;
    return false;
  }
  if (c != ',') return fail(close == ']' ? "expected ',' or ']'" : "expected ',' or '}'");
  return true;
}

bool JsonReader::next_element() { return next_item(']'); }

bool JsonReader::next_member(std::string* key) {
  if (!next_item('}')) return false;
  skip_space();
  if (!read_string(key)) return false;
  skip_space();
  if (pos_ >= text_.size() || text_[pos_++] != ':') return fail("expected ':'");
  return true;
}

bool JsonReader::skip_value() {
  // Recursion bounded by kMaxDepth, as in read_value.
  Json::Type type = Json::Type::Null;
  if (!peek(type)) return false;
  switch (type) {
    case Json::Type::Null: return read_null();
    case Json::Type::Bool: {
      bool b = false;
      return read_bool(b);
    }
    case Json::Type::Number: return read_number(nullptr);
    case Json::Type::String: return read_string(nullptr);
    case Json::Type::Array:
      if (!begin_array()) return false;
      while (next_element()) {
        if (!skip_value()) return false;
      }
      return ok();
    case Json::Type::Object:
      if (!begin_object()) return false;
      while (next_member(nullptr)) {
        if (!skip_value()) return false;
      }
      return ok();
  }
  return false;
}

bool JsonReader::end() {
  if (!ok()) return false;
  skip_space();
  if (pos_ < text_.size()) return fail("trailing characters");
  return true;
}

// ------------------------------------------------------------------ Json

std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 8);
  for (const char c : raw) {
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
  return out;
}

Json::Json(std::uint64_t u) {
  if (std::in_range<std::int64_t>(u)) {
    value_ = JsonNumber(static_cast<std::int64_t>(u));
  } else {
    value_ = JsonNumber(u);
  }
}

Json::Json(JsonObject o) {
  normalize(o);
  value_ = std::move(o);
}

bool operator==(const Json& a, const Json& b) {
  const JsonNumber* an = a.as_number();
  const JsonNumber* bn = b.as_number();
  if (an != nullptr && bn != nullptr) return same_number(*an, *bn);
  return a.value_ == b.value_;
}

bool Json::as_bool(bool fallback) const noexcept {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  return fallback;
}

double Json::as_double(double fallback) const noexcept {
  if (const JsonNumber* n = as_number()) return json_number_as_double(*n);
  return fallback;
}

std::int64_t Json::as_int(std::int64_t fallback) const noexcept {
  if (const JsonNumber* n = as_number()) return json_number_as_int(*n);
  return fallback;
}

const std::string& Json::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  return kEmptyString;
}

const JsonArray& Json::as_array() const {
  if (const JsonArray* a = std::get_if<JsonArray>(&value_)) return *a;
  return kEmptyArray;
}

const JsonObject& Json::as_object() const {
  if (const JsonObject* o = std::get_if<JsonObject>(&value_)) return *o;
  return kEmptyObject;
}

const Json& Json::operator[](std::string_view key) const {
  if (const JsonObject* o = std::get_if<JsonObject>(&value_)) {
    const auto it = find_member(*o, key);
    if (it != o->end()) return it->second;
  }
  return kNull;
}

Json& Json::set(std::string key, Json value) {
  if (!is_object()) value_ = JsonObject{};
  auto& members = std::get<JsonObject>(value_);
  const auto it = std::lower_bound(
      members.begin(), members.end(), key,
      [](const auto& member, const std::string& k) { return member.first < k; });
  if (it != members.end() && it->first == key) {
    it->second = std::move(value);
  } else {
    members.emplace(it, std::move(key), std::move(value));
  }
  return *this;
}

bool Json::contains(std::string_view key) const {
  if (const JsonObject* o = std::get_if<JsonObject>(&value_)) {
    return find_member(*o, key) != o->end();
  }
  return false;
}

Json& Json::push_back(Json value) {
  if (!is_array()) value_ = JsonArray{};
  std::get<JsonArray>(value_).push_back(std::move(value));
  return *this;
}

std::size_t Json::size() const noexcept {
  if (const JsonArray* a = std::get_if<JsonArray>(&value_)) return a->size();
  if (const JsonObject* o = std::get_if<JsonObject>(&value_)) return o->size();
  return 0;
}

void Json::write(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (type()) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += std::get<bool>(value_) ? "true" : "false"; break;
    case Type::Number: write_number(out, std::get<JsonNumber>(value_)); break;
    case Type::String:
      out += '"';
      out += json_escape(std::get<std::string>(value_));
      out += '"';
      break;
    case Type::Array: {
      const auto& arr = std::get<JsonArray>(value_);
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        arr[i].write(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Type::Object: {
      const auto& obj = std::get<JsonObject>(value_);
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : obj) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        out += '"';
        out += json_escape(key);
        out += "\":";
        if (indent > 0) out += ' ';
        value.write(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

std::string Json::pretty() const {
  std::string out;
  write(out, 2, 0);
  return out;
}

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  JsonReader reader(text);
  Json out;
  if (!read_value(reader, out) || !reader.end()) {
    if (error != nullptr) *error = reader.error();
    return std::nullopt;
  }
  return out;
}

}  // namespace mcb
