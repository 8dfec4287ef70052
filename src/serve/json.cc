#include "src/serve/json.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "src/sim/log.h"

namespace bauvm
{

namespace
{

const std::string kEmpty;

} // namespace

class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool
    parseDocument(JsonValue *out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing garbage after document");
        return true;
    }

  private:
    bool
    fail(const char *what)
    {
        if (error_) {
            *error_ = "json: " + std::string(what) + " at offset " +
                      std::to_string(pos_);
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos_;
            else
                break;
        }
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return fail("bad literal");
        pos_ += n;
        return true;
    }

    bool
    parseValue(JsonValue *out)
    {
        if (depth_ > kMaxDepth)
            return fail("nesting too deep");
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case 'n':
            out->kind_ = JsonValue::Kind::Null;
            return literal("null");
          case 't':
            out->kind_ = JsonValue::Kind::Bool;
            out->bool_ = true;
            return literal("true");
          case 'f':
            out->kind_ = JsonValue::Kind::Bool;
            out->bool_ = false;
            return literal("false");
          case '"':
            out->kind_ = JsonValue::Kind::String;
            return parseString(&out->scalar_);
          case '[':
            return parseArray(out);
          case '{':
            return parseObject(out);
          default:
            return parseNumber(out);
        }
    }

    bool
    parseString(std::string *out)
    {
        ++pos_; // opening quote
        out->clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return fail("unterminated escape");
                const char e = text_[pos_++];
                switch (e) {
                  case '"':
                    *out += '"';
                    break;
                  case '\\':
                    *out += '\\';
                    break;
                  case '/':
                    *out += '/';
                    break;
                  case 'b':
                    *out += '\b';
                    break;
                  case 'f':
                    *out += '\f';
                    break;
                  case 'n':
                    *out += '\n';
                    break;
                  case 'r':
                    *out += '\r';
                    break;
                  case 't':
                    *out += '\t';
                    break;
                  case 'u': {
                      if (pos_ + 4 > text_.size())
                          return fail("truncated \\u escape");
                      unsigned code = 0;
                      for (int i = 0; i < 4; ++i) {
                          const char h = text_[pos_++];
                          code <<= 4;
                          if (h >= '0' && h <= '9')
                              code |= static_cast<unsigned>(h - '0');
                          else if (h >= 'a' && h <= 'f')
                              code |= static_cast<unsigned>(
                                  h - 'a' + 10);
                          else if (h >= 'A' && h <= 'F')
                              code |= static_cast<unsigned>(
                                  h - 'A' + 10);
                          else
                              return fail("bad \\u escape digit");
                      }
                      // UTF-8 encode the BMP code point; surrogate
                      // pairs are not combined (the writer never emits
                      // them — it only escapes control characters).
                      if (code < 0x80) {
                          *out += static_cast<char>(code);
                      } else if (code < 0x800) {
                          *out += static_cast<char>(0xc0 | (code >> 6));
                          *out += static_cast<char>(
                              0x80 | (code & 0x3f));
                      } else {
                          *out +=
                              static_cast<char>(0xe0 | (code >> 12));
                          *out += static_cast<char>(
                              0x80 | ((code >> 6) & 0x3f));
                          *out += static_cast<char>(
                              0x80 | (code & 0x3f));
                      }
                      break;
                  }
                  default:
                    return fail("unknown escape");
                }
                continue;
            }
            *out += c;
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue *out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if ((c >= '0' && c <= '9') || c == '.' || c == 'e' ||
                c == 'E' || c == '+' || c == '-')
                ++pos_;
            else
                break;
        }
        if (pos_ == start)
            return fail("expected a value");
        out->kind_ = JsonValue::Kind::Number;
        out->scalar_ = text_.substr(start, pos_ - start);
        errno = 0;
        char *end = nullptr;
        out->num_ = std::strtod(out->scalar_.c_str(), &end);
        if (end != out->scalar_.c_str() + out->scalar_.size())
            return fail("malformed number");
        return true;
    }

    bool
    parseArray(JsonValue *out)
    {
        ++pos_; // '['
        ++depth_;
        out->kind_ = JsonValue::Kind::Array;
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            --depth_;
            return true;
        }
        while (true) {
            out->elements_.emplace_back();
            skipWs();
            if (!parseValue(&out->elements_.back()))
                return false;
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            const char c = text_[pos_++];
            if (c == ']') {
                --depth_;
                return true;
            }
            if (c != ',')
                return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseObject(JsonValue *out)
    {
        ++pos_; // '{'
        ++depth_;
        out->kind_ = JsonValue::Kind::Object;
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            --depth_;
            return true;
        }
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(&key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':' after object key");
            ++pos_;
            skipWs();
            out->members_.emplace_back(std::move(key), JsonValue());
            if (!parseValue(&out->members_.back().second))
                return false;
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            const char c = text_[pos_++];
            if (c == '}') {
                --depth_;
                return true;
            }
            if (c != ',')
                return fail("expected ',' or '}' in object");
        }
    }

    static constexpr int kMaxDepth = 64;

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

bool
JsonValue::parse(const std::string &text, JsonValue *out,
                 std::string *error)
{
    *out = JsonValue();
    JsonParser parser(text, error);
    return parser.parseDocument(out);
}

bool
JsonValue::asBool(bool fallback) const
{
    return isBool() ? bool_ : fallback;
}

double
JsonValue::asDouble(double fallback) const
{
    return isNumber() ? num_ : fallback;
}

std::uint64_t
JsonValue::asU64(std::uint64_t fallback) const
{
    if (!isNumber())
        return fallback;
    // Exact path: a plain non-negative integer token.
    if (!scalar_.empty() &&
        scalar_.find_first_not_of("0123456789") == std::string::npos) {
        errno = 0;
        const unsigned long long v =
            std::strtoull(scalar_.c_str(), nullptr, 10);
        if (errno == 0)
            return v;
    }
    // Out of range (NaN included): a cast would be undefined.
    return num_ >= 0.0 && num_ < 0x1p64 ? static_cast<std::uint64_t>(num_)
                                        : fallback;
}

std::int64_t
JsonValue::asI64(std::int64_t fallback) const
{
    if (!isNumber())
        return fallback;
    if (!scalar_.empty() &&
        scalar_.find_first_not_of("0123456789-") ==
            std::string::npos) {
        errno = 0;
        const long long v = std::strtoll(scalar_.c_str(), nullptr, 10);
        if (errno == 0)
            return v;
    }
    return num_ >= -0x1p63 && num_ < 0x1p63 ? static_cast<std::int64_t>(num_)
                                            : fallback;
}

const std::string &
JsonValue::asString() const
{
    return isString() ? scalar_ : kEmpty;
}

std::size_t
JsonValue::size() const
{
    if (isArray())
        return elements_.size();
    if (isObject())
        return members_.size();
    return 0;
}

const JsonValue &
JsonValue::at(std::size_t i) const
{
    if (!isArray() || i >= elements_.size())
        fatal("JsonValue::at(%zu): out of range (size %zu)", i,
              elements_.size());
    return elements_[i];
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[k, v] : members_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

std::string
JsonValue::getString(const std::string &key,
                     const std::string &fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isString() ? v->asString() : fallback;
}

double
JsonValue::getDouble(const std::string &key, double fallback) const
{
    const JsonValue *v = find(key);
    return v ? v->asDouble(fallback) : fallback;
}

std::uint64_t
JsonValue::getU64(const std::string &key, std::uint64_t fallback) const
{
    const JsonValue *v = find(key);
    return v ? v->asU64(fallback) : fallback;
}

bool
JsonValue::getBool(const std::string &key, bool fallback) const
{
    const JsonValue *v = find(key);
    return v ? v->asBool(fallback) : fallback;
}

std::string
memberKindError(const JsonValue &v,
                std::initializer_list<JsonMemberKind> expected)
{
    for (const JsonMemberKind &m : expected) {
        const JsonValue *member = v.find(m.key);
        if (!member || member->kind() == m.kind)
            continue;
        const char *want = m.kind == JsonValue::Kind::Number ? "a number"
                           : m.kind == JsonValue::Kind::Bool ? "a boolean"
                                                             : "a string";
        return std::string("'") + m.key + "' must be " + want;
    }
    return {};
}

} // namespace bauvm
