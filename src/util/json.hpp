// JSON for the HTTP API (src/serve), the framework configuration loader
// (src/core) and the tools: one pull reader over the input span
// (JsonReader), a value type built on it (Json), and compact / pretty
// serializers.
//
// One grammar: every JSON text the repo reads goes through JsonReader.
// Json::parse builds a value from it; the API decodes request jobs from
// it directly, without a value tree. Strings copy the run up to the first
// quote or escape in one step; \u escapes decode to UTF-8 within the BMP
// (surrogate pairs are not combined). A number is the longest run of
// [0-9.eE+-] after an optional sign, parsed with std::from_chars: an
// integer literal that fits int64_t or uint64_t is kept exactly, any
// other number becomes a double (past the double range, +/-inf or 0, as
// strtod rounds). Containers nest at most kMaxDepth deep, so hostile
// input cannot exhaust the stack, and a skipped value builds nothing.
// Errors read "<what> at offset N".
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace mcb {

class Json;
using JsonArray = std::vector<Json>;
/// Members sorted by key, each key once. Where a parsed document repeats
/// a key, the first occurrence wins.
using JsonObject = std::vector<std::pair<std::string, Json>>;
/// A number: an exact integer (uint64_t only above INT64_MAX), or a
/// double for any other value.
using JsonNumber = std::variant<std::int64_t, std::uint64_t, double>;

/// `number` as a double (an integer converts to the nearest double).
double json_number_as_double(const JsonNumber& number) noexcept;
/// `number` as an int64_t: exact for an int64_t, INT64_MAX above it,
/// llround for a double.
std::int64_t json_number_as_int(const JsonNumber& number) noexcept;

class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(JsonNumber(d)) {}
  Json(int i) : value_(JsonNumber(std::int64_t{i})) {}
  Json(std::int64_t i) : value_(JsonNumber(i)) {}
  Json(std::uint64_t u);
  Json(JsonNumber n) : value_(n) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(std::string_view s) : value_(std::string(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  /// Sorts the members by key; of repeated keys the first is kept.
  Json(JsonObject o);

  static Json array() { return Json(JsonArray{}); }
  static Json object() { return Json(JsonObject{}); }

  Type type() const noexcept { return static_cast<Type>(value_.index()); }
  bool is_null() const noexcept { return type() == Type::Null; }
  bool is_bool() const noexcept { return type() == Type::Bool; }
  bool is_number() const noexcept { return type() == Type::Number; }
  bool is_string() const noexcept { return type() == Type::String; }
  bool is_array() const noexcept { return type() == Type::Array; }
  bool is_object() const noexcept { return type() == Type::Object; }

  bool as_bool(bool fallback = false) const noexcept;
  double as_double(double fallback = 0.0) const noexcept;
  std::int64_t as_int(std::int64_t fallback = 0) const noexcept;
  /// The number held, or nullptr if this is not a number.
  const JsonNumber* as_number() const noexcept { return std::get_if<JsonNumber>(&value_); }
  const std::string& as_string() const;  ///< empty string if not a string
  const JsonArray& as_array() const;     ///< empty array if not an array
  const JsonObject& as_object() const;   ///< empty object if not an object

  /// Object field access; returns a shared null for missing keys.
  const Json& operator[](std::string_view key) const;
  /// Mutable object access; converts this value to an object if needed.
  Json& set(std::string key, Json value);
  bool contains(std::string_view key) const;

  /// Array helpers.
  Json& push_back(Json value);
  std::size_t size() const noexcept;

  /// Compact serialization (no whitespace).
  std::string dump() const;
  /// Pretty serialization with 2-space indentation.
  std::string pretty() const;

  /// Parse; returns std::nullopt and fills `error` (if given) on failure.
  static std::optional<Json> parse(std::string_view text, std::string* error = nullptr);

  /// Numbers compare by value (2 == 2.0); everything else structurally.
  friend bool operator==(const Json& a, const Json& b);

 private:
  void write(std::string& out, int indent, int depth) const;
  std::variant<std::nullptr_t, bool, JsonNumber, std::string, JsonArray, JsonObject> value_;
};

/// Pull reader over one JSON text. Each read consumes one token or value
/// and returns false on the first error, after which error() says what
/// and where and every further call fails. A container is read as
///
///   if (!reader.begin_array()) return false;
///   while (reader.next_element()) { /* read or skip one value */ }
///   if (!reader.ok()) return false;
///
/// and likewise begin_object() / next_member(&key). A read given a null
/// output checks its token without storing it.
class JsonReader {
 public:
  /// Deepest container nesting accepted. The deepest document the repo
  /// reads or writes nests about 5 deep.
  static constexpr std::size_t kMaxDepth = 64;

  explicit JsonReader(std::string_view text) noexcept : text_(text) {}

  /// Skips whitespace and names the type of the next value from its
  /// first byte; a byte that starts no other value reads as a number and
  /// fails there. False at the end of input.
  bool peek(Json::Type& type);

  bool read_null();
  bool read_bool(bool& out);
  bool read_number(JsonNumber* out);
  /// Replaces `*out` with the decoded string.
  bool read_string(std::string* out);

  /// Consume '[' or '{'; fails past kMaxDepth.
  bool begin_array();
  bool begin_object();
  /// True when another element follows; false once the closing ']' is
  /// consumed or on an error.
  bool next_element();
  /// True with the next member's key in `*key` and its ':' consumed;
  /// false once the closing '}' is consumed or on an error.
  bool next_member(std::string* key);

  /// Reads and drops one value, with every check reading it would make,
  /// but without building it: no string, member or element is stored.
  bool skip_value();
  /// Consumes trailing whitespace; fails if anything else is left.
  bool end();

  bool ok() const noexcept { return error_.empty(); }
  const std::string& error() const noexcept { return error_; }

 private:
  bool fail(std::string_view what);
  bool literal(std::string_view word);
  void skip_space();
  bool open(char bracket);
  /// Consumes the separator before a container's next item; false at
  /// its end (close consumed) or on an error.
  bool next_item(char close);

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  /// Bit d set: the container open at depth d + 1 has no item yet.
  std::uint64_t fresh_ = 0;
  std::string error_;
};

/// Escape a string for inclusion in JSON output (without quotes).
std::string json_escape(std::string_view raw);

}  // namespace mcb
