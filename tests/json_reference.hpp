// Reference JSON parser for differential tests: the recursive-descent
// parser util/json.cpp used before the pull reader, kept as an oracle.
// It builds its own value type (every number a strtod double, objects a
// std::map whose emplace keeps the first of repeated keys) and has no
// depth cap, so callers must not feed it deeply nested input: it recurses
// once per level.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace mcb::reference {

struct Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value, std::less<>>;

struct Value {
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v = nullptr;
};

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool at_end() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  void skip_ws() {
    while (!at_end()) {
      const char c = text[pos];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos;
      } else {
        break;
      }
    }
  }

  bool fail(const std::string& msg) {
    if (error.empty()) error = msg + " at offset " + std::to_string(pos);
    return false;
  }

  bool parse_value(Value& out) {
    skip_ws();
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out.v = std::move(s);
        return true;
      }
      case 't': return parse_literal("true", true, out);
      case 'f': return parse_literal("false", false, out);
      case 'n': return parse_literal("null", nullptr, out);
      default: return parse_number(out);
    }
  }

  template <typename T>
  bool parse_literal(std::string_view lit, T value, Value& out) {
    if (text.substr(pos, lit.size()) != lit) return fail("invalid literal");
    pos += lit.size();
    out.v = value;
    return true;
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos;
    if (!at_end() && (peek() == '-' || peek() == '+')) ++pos;
    while (!at_end() && ((peek() >= '0' && peek() <= '9') || peek() == '.' || peek() == 'e' ||
                         peek() == 'E' || peek() == '-' || peek() == '+')) {
      ++pos;
    }
    if (pos == start) return fail("invalid number");
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("invalid number");
    out.v = v;
    return true;
  }

  bool parse_string(std::string& out) {
    if (at_end() || peek() != '"') return fail("expected string");
    ++pos;
    out.clear();
    while (!at_end()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (at_end()) return fail("bad escape");
        const char e = text[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > text.size()) return fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
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
            break;
          }
          default: return fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool parse_array(Value& out) {
    ++pos;  // '['
    Array arr;
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos;
      out.v = std::move(arr);
      return true;
    }
    for (;;) {
      Value element;
      if (!parse_value(element)) return false;
      arr.push_back(std::move(element));
      skip_ws();
      if (at_end()) return fail("unterminated array");
      const char c = text[pos++];
      if (c == ']') break;
      if (c != ',') return fail("expected ',' or ']'");
    }
    out.v = std::move(arr);
    return true;
  }

  bool parse_object(Value& out) {
    ++pos;  // '{'
    Object obj;
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos;
      out.v = std::move(obj);
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (at_end() || text[pos++] != ':') return fail("expected ':'");
      Value value;
      if (!parse_value(value)) return false;
      obj.emplace(std::move(key), std::move(value));
      skip_ws();
      if (at_end()) return fail("unterminated object");
      const char c = text[pos++];
      if (c == '}') break;
      if (c != ',') return fail("expected ',' or '}'");
    }
    out.v = std::move(obj);
    return true;
  }
};

/// Parses `text` as the previous Json::parse did; false with `error` set
/// on failure.
inline bool parse(std::string_view text, Value& out, std::string& error) {
  Parser parser{text, 0, {}};
  if (!parser.parse_value(out)) {
    error = parser.error;
    return false;
  }
  parser.skip_ws();
  if (!parser.at_end()) {
    error = "trailing characters at offset " + std::to_string(parser.pos);
    return false;
  }
  return true;
}

}  // namespace mcb::reference
