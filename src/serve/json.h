/**
 * @file
 * A minimal dependency-free JSON *parser*, the read-side twin of
 * src/runner/json_writer.h.
 *
 * Numbers keep their raw token alongside the parsed double, so 64-bit
 * integers (seeds, cycle counts, content digests) round-trip exactly
 * through asU64()/asI64() instead of losing precision above 2^53.
 * Objects preserve member order and are looked up linearly — every
 * document this repo parses (sweep requests, worker protocol frames,
 * cached cell results) has small objects.
 *
 * Error handling is by return value: parse() reports the byte offset
 * and reason; the typed accessors return a fallback on kind mismatch
 * (callers validate kinds explicitly where it matters).
 */

#ifndef BAUVM_SERVE_JSON_H_
#define BAUVM_SERVE_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bauvm
{

class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    /**
     * Parses one JSON document from @p text (trailing whitespace
     * allowed, trailing garbage is an error). @return false with a
     * position-annotated message in @p error on malformed input.
     */
    static bool parse(const std::string &text, JsonValue *out,
                      std::string *error);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool(bool fallback = false) const;
    double asDouble(double fallback = 0.0) const;
    /** Exact when the token is a plain unsigned integer; otherwise
     *  truncates the double value, or returns @p fallback when it is
     *  out of the type's range. asI64() likewise. */
    std::uint64_t asU64(std::uint64_t fallback = 0) const;
    std::int64_t asI64(std::int64_t fallback = 0) const;
    const std::string &asString() const; //!< "" unless isString()

    /** Array/object element count; 0 for scalars. */
    std::size_t size() const;
    /** Array element; panics via fatal() when out of range. */
    const JsonValue &at(std::size_t i) const;

    /** Object member by key; nullptr when absent (or not an object). */
    const JsonValue *find(const std::string &key) const;
    /** Object members in document order. */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return members_;
    }

    // Convenience typed member lookups with fallbacks.
    std::string getString(const std::string &key,
                          const std::string &fallback = "") const;
    double getDouble(const std::string &key,
                     double fallback = 0.0) const;
    std::uint64_t getU64(const std::string &key,
                         std::uint64_t fallback = 0) const;
    bool getBool(const std::string &key, bool fallback = false) const;

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string scalar_; //!< string value, or the raw number token
    std::vector<JsonValue> elements_;
    std::vector<std::pair<std::string, JsonValue>> members_;

    friend class JsonParser;
};

} // namespace bauvm

#endif // BAUVM_SERVE_JSON_H_
