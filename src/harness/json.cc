#include "harness/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/logging.h"

namespace rtd::harness {

Json::Json(uint64_t value) : kind_(Kind::Int)
{
    RTDC_ASSERT(value <= static_cast<uint64_t>(INT64_MAX),
                "JSON integer overflow");
    int_ = static_cast<int64_t>(value);
}

Json::Json(double value) : kind_(Kind::Double), double_(value)
{
    if (!std::isfinite(value))
        kind_ = Kind::Null;
}

Json
Json::exactDouble(double value)
{
    Json v(value);
    v.exact_ = true;
    return v;
}

Json
Json::verbatim(std::string compactJson)
{
    Json v;
    v.kind_ = Kind::Verbatim;
    v.string_ = std::move(compactJson);
    return v;
}

Json
Json::array()
{
    Json v;
    v.kind_ = Kind::Array;
    return v;
}

Json
Json::object()
{
    Json v;
    v.kind_ = Kind::Object;
    return v;
}

bool
Json::asBool() const
{
    RTDC_ASSERT(kind_ == Kind::Bool, "JSON value is not a bool");
    return bool_;
}

int64_t
Json::asInt() const
{
    RTDC_ASSERT(kind_ == Kind::Int, "JSON value is not an integer");
    return int_;
}

double
Json::asDouble() const
{
    RTDC_ASSERT(isNumber(), "JSON value is not a number");
    return kind_ == Kind::Int ? static_cast<double>(int_) : double_;
}

const std::string &
Json::asString() const
{
    RTDC_ASSERT(kind_ == Kind::String, "JSON value is not a string");
    return string_;
}

void
Json::push(Json value)
{
    RTDC_ASSERT(kind_ == Kind::Array, "push() on a non-array JSON value");
    items_.push_back(std::move(value));
}

size_t
Json::size() const
{
    return kind_ == Kind::Array ? items_.size() : members_.size();
}

const Json &
Json::at(size_t index) const
{
    RTDC_ASSERT(kind_ == Kind::Array && index < items_.size(),
                "JSON array index out of range");
    return items_[index];
}

const std::vector<Json> &
Json::items() const
{
    RTDC_ASSERT(kind_ == Kind::Array, "items() on a non-array JSON value");
    return items_;
}

void
Json::set(std::string_view key, Json value)
{
    RTDC_ASSERT(kind_ == Kind::Object, "set() on a non-object JSON value");
    for (auto &member : members_) {
        if (member.first == key) {
            member.second = std::move(value);
            return;
        }
    }
    members_.emplace_back(key, std::move(value));
}

const Json *
Json::find(std::string_view key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &member : members_) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

const Json &
Json::get(std::string_view key) const
{
    const Json *value = find(key);
    RTDC_ASSERT(value != nullptr, "missing JSON member '%s'",
                std::string(key).c_str());
    return *value;
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    RTDC_ASSERT(kind_ == Kind::Object,
                "members() on a non-object JSON value");
    return members_;
}

namespace {

/** True for the bytes a JSON string cannot hold raw. */
bool
needsEscape(unsigned char c)
{
    return c == '"' || c == '\\' || c < 0x20;
}

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    const char *p = s.data();
    const char *end = p + s.size();
    while (p < end) {
        // Copy the run of plain bytes in one append, then escape one.
        const char *run = p;
        while (p < end && !needsEscape(static_cast<unsigned char>(*p)))
            ++p;
        out.append(run, static_cast<size_t>(p - run));
        if (p == end)
            break;
        unsigned char c = static_cast<unsigned char>(*p++);
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          }
        }
    }
    out += '"';
}

void
appendNewline(std::string &out, int indent, int depth)
{
    if (indent <= 0)
        return;
    out += '\n';
    out.append(static_cast<size_t>(indent) * depth, ' ');
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    // Wide enough for INT64_MIN and for "%.17g" of any double.
    char buf[32];
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Int: {
        // The same text as "%lld".
        auto res = std::to_chars(buf, buf + sizeof buf, int_);
        out.append(buf, res.ptr);
        break;
      }
      case Kind::Double: {
        // General format at a fixed precision is "%.10g" / "%.17g"
        // byte for byte, without the printf machinery.
        auto res = std::to_chars(buf, buf + sizeof buf, double_,
                                 std::chars_format::general,
                                 exact_ ? 17 : 10);
        out.append(buf, res.ptr);
        break;
      }
      case Kind::String:
        appendEscaped(out, string_);
        break;
      case Kind::Verbatim:
        out += string_;
        break;
      case Kind::Array:
        out += '[';
        for (size_t i = 0; i < items_.size(); ++i) {
            if (i)
                out += ',';
            appendNewline(out, indent, depth + 1);
            items_[i].dumpTo(out, indent, depth + 1);
        }
        if (!items_.empty())
            appendNewline(out, indent, depth);
        out += ']';
        break;
      case Kind::Object:
        out += '{';
        for (size_t i = 0; i < members_.size(); ++i) {
            if (i)
                out += ',';
            appendNewline(out, indent, depth + 1);
            appendEscaped(out, members_[i].first);
            out += indent > 0 ? ": " : ":";
            members_[i].second.dumpTo(out, indent, depth + 1);
        }
        if (!members_.empty())
            appendNewline(out, indent, depth);
        out += '}';
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

/**
 * Recursive-descent JSON parser over a string. Containers are filled in
 * place (each element parses straight into its slot), which is why it
 * is a friend of Json rather than a user of push()/set().
 */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    bool parse(Json *out, std::string *error)
    {
        skipSpace();
        Json value;
        if (!parseValue(value))
            return fail(error);
        skipSpace();
        if (pos_ != text_.size()) {
            error_ = "trailing characters";
            return fail(error);
        }
        *out = std::move(value);
        return true;
    }

  private:
    bool fail(std::string *error)
    {
        if (error) {
            *error = (error_.empty() ? "parse error" : error_) +
                     " at offset " + std::to_string(pos_);
        }
        return false;
    }

    void skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool literal(std::string_view word, Json value, Json &out)
    {
        if (text_.compare(pos_, word.size(), word) != 0) {
            error_ = "invalid literal";
            return false;
        }
        pos_ += word.size();
        out = std::move(value);
        return true;
    }

    /** Parse one value into @p out, a default-constructed Json. */
    bool parseValue(Json &out)
    {
        if (pos_ >= text_.size()) {
            error_ = "unexpected end of input";
            return false;
        }
        char c = text_[pos_];
        switch (c) {
          case 'n': return literal("null", Json(), out);
          case 't': return literal("true", Json(true), out);
          case 'f': return literal("false", Json(false), out);
          case '"':
            out.kind_ = Json::Kind::String;
            return parseRawString(out.string_);
          case '[': return parseArray(out);
          case '{': return parseObject(out);
          default: return parseNumber(out);
        }
    }

    /** Container-entry guard: bounded recursion is what keeps a
     *  deeply-nested wire payload a parse error instead of a stack
     *  overflow. */
    bool enter()
    {
        if (++depth_ > Json::maxParseDepth) {
            error_ = "nesting too deep";
            return false;
        }
        return true;
    }
    void leave() { --depth_; }

    bool parseRawString(std::string &s)
    {
        ++pos_;  // opening quote
        while (pos_ < text_.size()) {
            // Append the run up to the next quote or escape in one go.
            size_t run = pos_;
            while (pos_ < text_.size() && text_[pos_] != '"' &&
                   text_[pos_] != '\\')
                ++pos_;
            s.append(text_.data() + run, pos_ - run);
            if (pos_ >= text_.size() || text_[pos_] == '"')
                break;
            if (pos_ + 1 >= text_.size()) {
                error_ = "bad escape";
                return false;
            }
            char esc = text_[pos_ + 1];
            pos_ += 2;
            switch (esc) {
              case '"': s += '"'; break;
              case '\\': s += '\\'; break;
              case '/': s += '/'; break;
              case 'b': s += '\b'; break;
              case 'f': s += '\f'; break;
              case 'n': s += '\n'; break;
              case 'r': s += '\r'; break;
              case 't': s += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size()) {
                    error_ = "bad \\u escape";
                    return false;
                }
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_ + i];
                    cp <<= 4;
                    if (h >= '0' && h <= '9') cp |= h - '0';
                    else if (h >= 'a' && h <= 'f') cp |= h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F') cp |= h - 'A' + 10;
                    else {
                        error_ = "bad \\u escape";
                        return false;
                    }
                }
                pos_ += 4;
                // UTF-8 encode the basic-plane code point (surrogate
                // pairs are not combined; the sink never emits them).
                if (cp < 0x80) {
                    s += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    s += static_cast<char>(0xc0 | (cp >> 6));
                    s += static_cast<char>(0x80 | (cp & 0x3f));
                } else {
                    s += static_cast<char>(0xe0 | (cp >> 12));
                    s += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                    s += static_cast<char>(0x80 | (cp & 0x3f));
                }
                break;
              }
              default:
                error_ = "bad escape";
                return false;
            }
        }
        if (pos_ >= text_.size()) {
            error_ = "unterminated string";
            return false;
        }
        ++pos_;  // closing quote
        return true;
    }

    /**
     * A number token is the longest run of digits and ".eE+-". An
     * all-digit token (with an optional leading '-') that fits int64
     * is an Int; anything else must be, whole, what strtod accepts,
     * and becomes a Double (out-of-range magnitudes degrade to Null,
     * as Json(double) does).
     */
    bool parseNumber(Json &out)
    {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        bool integral = true;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start) {
            error_ = "invalid value";
            return false;
        }
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        if (integral) {
            int64_t v = 0;
            auto res = std::from_chars(first, last, v);
            if (res.ec == std::errc() && res.ptr == last) {
                out = Json(v);
                return true;
            }
            // Fall through to double for out-of-range integers.
        }
        // from_chars reads the strtod syntax (less a leading '+') and
        // rounds correctly, as glibc's strtod does; whatever it will
        // not take whole ('+', overflow, underflow) goes to strtod.
        double d = 0.0;
        auto res = std::from_chars(first, last, d);
        if (res.ec != std::errc() || res.ptr != last) {
            if (!strtodToken(first, last, d)) {
                error_ = "invalid number";
                return false;
            }
        }
        out = Json(d);
        return true;
    }

    /** strtod over a NUL-terminated copy of [first, last) (rare: see
     *  parseNumber); true when it consumes the whole token. */
    static bool strtodToken(const char *first, const char *last,
                            double &out)
    {
        std::string token(first, last);
        char *end = nullptr;
        out = std::strtod(token.c_str(), &end);
        return end == token.c_str() + token.size();
    }

    bool parseArray(Json &out)
    {
        if (!enter())
            return false;
        ++pos_;  // '['
        out.kind_ = Json::Kind::Array;
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            leave();
            return true;
        }
        while (true) {
            skipSpace();
            out.items_.emplace_back();
            if (!parseValue(out.items_.back()))
                return false;
            skipSpace();
            if (pos_ >= text_.size()) {
                error_ = "unterminated array";
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                leave();
                return true;
            }
            error_ = "expected ',' or ']'";
            return false;
        }
    }

    bool parseObject(Json &out)
    {
        if (!enter())
            return false;
        ++pos_;  // '{'
        out.kind_ = Json::Kind::Object;
        auto &members = out.members_;
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            leave();
            return true;
        }
        while (true) {
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                error_ = "expected object key";
                return false;
            }
            std::string key;
            if (!parseRawString(key))
                return false;
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != ':') {
                error_ = "expected ':'";
                return false;
            }
            ++pos_;
            skipSpace();
            // One scan for a duplicate; the first of a key is kept, so a
            // repeat parses into a scratch value that is dropped.
            bool duplicate = false;
            for (const auto &member : members) {
                if (member.first == key) {
                    duplicate = true;
                    break;
                }
            }
            Json scratch;
            Json *slot = &scratch;
            if (!duplicate) {
                members.emplace_back(std::move(key), Json());
                slot = &members.back().second;
            }
            if (!parseValue(*slot))
                return false;
            skipSpace();
            if (pos_ >= text_.size()) {
                error_ = "unterminated object";
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                leave();
                return true;
            }
            error_ = "expected ',' or '}'";
            return false;
        }
    }

    std::string_view text_;
    size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;
};

bool
Json::parse(std::string_view text, Json *out, std::string *error)
{
    return JsonParser(text).parse(out, error);
}

} // namespace rtd::harness
