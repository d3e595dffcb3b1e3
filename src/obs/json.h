// Minimal streaming JSON writer, strict document parser and exact field
// readers: the one place where a JSON token becomes a number, for the
// wire protocol, ledger journals, checkpoints and config surfaces such as
// MechanismSpec.
//
// The writer emits compact JSON with deterministic formatting: keys appear
// exactly in the order the caller writes them, and doubles render via
// shortest round-trip (std::to_chars), so identical inputs serialize to
// identical bytes across runs. JSON has no encoding for non-finite
// numbers, so infinities and NaN are emitted as the strings
// "inf"/"-inf"/"nan" to keep every document parseable.
//
// The writer does not validate nesting beyond what its own bookkeeping
// needs; callers are expected to produce well-formed sequences (this is an
// internal serialization aid, not a general-purpose JSON library).
//
// The parser (JsonParse) covers objects, arrays, strings, numbers,
// booleans and null, and gives every input one reading or refuses it with
// a Status: trailing garbage, unterminated containers, bad escapes, lone
// surrogates, repeated keys, numbers beyond a double's range and nesting
// deeper than kMaxJsonDepth are all refused.
#ifndef IREDUCT_OBS_JSON_H_
#define IREDUCT_OBS_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace ireduct {
namespace obs {

/// Shortest round-trip decimal rendering of `v` ("inf"/"-inf"/"nan" for
/// non-finite values, without quotes — used inside JsonWriter and for
/// human-readable log output).
std::string FormatDouble(double v);

/// `v` as one JSON value, as JsonWriter::Double writes it: the shortest
/// round-trip number, or the quoted string "inf"/"-inf"/"nan".
std::string JsonToken(double v);

/// Deepest nesting of arrays and objects JsonParse accepts. The deepest
/// document the repo reads has 6 levels; the bound keeps a hostile line
/// from exhausting the parser's stack.
inline constexpr size_t kMaxJsonDepth = 64;

/// JSON string escaping of `s` (quotes not included).
std::string EscapeJson(std::string_view s);

/// Streaming writer appending to a caller-owned buffer.
class JsonWriter {
 public:
  /// Appends to `*out` (borrowed; must outlive the writer).
  explicit JsonWriter(std::string* out) : out_(out) {}

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Writes an object key; the next value call provides its value.
  void Key(std::string_view key);

  void String(std::string_view value);
  void Double(double value);
  void Int(int64_t value);
  void UInt(uint64_t value);
  void Bool(bool value);
  /// Splices a pre-serialized JSON value verbatim.
  void RawValue(std::string_view json);

  /// Convenience: Key + value in one call.
  void KV(std::string_view key, std::string_view value) {
    Key(key);
    String(value);
  }
  void KV(std::string_view key, double value) {
    Key(key);
    Double(value);
  }
  void KV(std::string_view key, uint64_t value) {
    Key(key);
    UInt(value);
  }

 private:
  // Called before any value or key to insert the separating comma.
  void Separate();

  std::string* out_;
  // One flag per open container: has it emitted an element yet?
  std::vector<bool> has_element_;
  bool pending_key_ = false;
};

/// A parsed JSON document node. Object members keep insertion order so
/// consumers can assert on (or reproduce) field order.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  /// String payload for kString; the raw numeric token for kNumber (so
  /// integer-looking inputs can be re-emitted verbatim).
  std::string text;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is(Kind k) const { return kind == k; }

  /// First member with the given key, or nullptr (objects only).
  const JsonValue* Find(std::string_view key) const;

  /// Exact readers. The As* forms read this node, which `name` labels in
  /// errors (an array element, or a member met while iterating); the Get*
  /// forms read the required member `key` of this object. Anything else is
  /// kInvalidArgument naming the field: a missing member, a node of
  /// another kind, or an integer that is inexact or above `max`.
  ///
  /// An unsigned integer is read from the raw token by ParseExact (plain
  /// decimal digits: no sign, fraction or exponent). A double is `number`,
  /// which restores every double JsonWriter wrote bit for bit.
  Result<uint64_t> AsUnsigned(std::string_view name,
                              uint64_t max = UINT64_MAX) const;
  Result<double> AsDouble(std::string_view name) const;
  Result<std::string> AsString(std::string_view name) const;
  Result<bool> AsBool(std::string_view name) const;
  /// An array whose elements are read as above.
  Result<std::vector<uint64_t>> AsUnsigneds(std::string_view name,
                                            uint64_t max = UINT64_MAX) const;
  Result<std::vector<double>> AsDoubles(std::string_view name) const;

  /// The member `key`, which must be of kind `k`.
  Result<const JsonValue*> Get(std::string_view key, Kind k) const;
  Result<uint64_t> GetUnsigned(std::string_view key,
                               uint64_t max = UINT64_MAX) const {
    return Member(key).AsUnsigned(key, max);
  }
  Result<double> GetDouble(std::string_view key) const {
    return Member(key).AsDouble(key);
  }
  Result<std::string> GetString(std::string_view key) const {
    return Member(key).AsString(key);
  }
  Result<std::vector<uint64_t>> GetUnsigneds(std::string_view key,
                                             uint64_t max = UINT64_MAX) const {
    return Member(key).AsUnsigneds(key, max);
  }
  Result<std::vector<double>> GetDoubles(std::string_view key) const {
    return Member(key).AsDoubles(key);
  }

 private:
  /// The member `key`, or a null node when there is none.
  const JsonValue& Member(std::string_view key) const;
};

/// Parses one JSON document. Strict: the whole input must be consumed.
/// A `\u` escape decodes to UTF-8, a surrogate pair to one code point.
/// A number keeps its raw token in `text` and its double reading in
/// `number`. Failures are kInvalidArgument with the byte offset.
Result<JsonValue> JsonParse(std::string_view text);

}  // namespace obs
}  // namespace ireduct

#endif  // IREDUCT_OBS_JSON_H_
