/**
 * @file
 * Minimal JSON document model for the sweep harness's result sinks.
 *
 * The harness emits machine-readable `BENCH_*.json` files next to the
 * human tables and tests round-trip them, so we need both a writer and a
 * parser. This is a deliberately small, dependency-free implementation:
 * ordered objects (deterministic output), 64-bit integers kept exact,
 * doubles printed as "%.10g" would print them. Not a general-purpose
 * JSON library — no comments, no trailing commas, objects with
 * duplicate keys keep the first.
 */

#ifndef RTDC_HARNESS_JSON_H
#define RTDC_HARNESS_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rtd::harness {

/** One JSON value (null, bool, integer, double, string, array, object). */
class Json
{
  public:
    enum class Kind : uint8_t
    {
        Null,
        Bool,
        Int,
        Double,
        String,
        Array,
        Object,
        /** Already-serialized JSON text, dumped as it is (verbatim()). */
        Verbatim,
    };

    Json() = default;
    Json(bool value) : kind_(Kind::Bool), bool_(value) {}
    Json(int value) : kind_(Kind::Int), int_(value) {}
    Json(unsigned value) : kind_(Kind::Int), int_(value) {}
    Json(int64_t value) : kind_(Kind::Int), int_(value) {}
    Json(uint64_t value);
    /**
     * JSON has no NaN/Infinity literals, and a wire peer must never
     * receive unparseable output, so non-finite values degrade to Null
     * (the conventional JSON mapping) instead of asserting.
     */
    Json(double value);

    /**
     * A double that serializes with 17 significant digits ("%.17g"), so
     * parsing the output recovers the bit-identical value. The wire
     * protocol uses this for workload-spec knobs, where a rounded
     * double would silently change the simulated point; the result
     * sinks keep the compact default ("%.10g") and their historical
     * bytes.
     */
    static Json exactDouble(double value);
    Json(const char *value) : kind_(Kind::String), string_(value) {}
    Json(std::string value)
        : kind_(Kind::String), string_(std::move(value))
    {
    }

    static Json array();
    static Json object();

    /**
     * A value that dump() writes as the bytes @p compactJson, unchanged:
     * a row or job that is already serialized rides inside a reply,
     * a journal record or a larger document without a parse and a
     * re-dump (which would also round its doubles). The caller vouches
     * that the bytes are one compact JSON value. parse() never makes
     * one, and the accessors treat it as no scalar, array or object.
     */
    static Json verbatim(std::string compactJson);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isNumber() const
    {
        return kind_ == Kind::Int || kind_ == Kind::Double;
    }

    /// @name Scalar accessors (panic on kind mismatch)
    /// @{
    bool asBool() const;
    int64_t asInt() const;
    /** Numeric value as double (works for Int and Double). */
    double asDouble() const;
    const std::string &asString() const;
    /// @}

    /// @name Array operations
    /// @{
    void push(Json value);
    size_t size() const;
    const Json &at(size_t index) const;
    const std::vector<Json> &items() const;
    /// @}

    /// @name Object operations (insertion order preserved)
    /// @{
    void set(std::string_view key, Json value);
    /** Member lookup; nullptr when absent (or not an object). */
    const Json *find(std::string_view key) const;
    /** Member lookup; panics when absent. */
    const Json &get(std::string_view key) const;
    const std::vector<std::pair<std::string, Json>> &members() const;
    /// @}

    /**
     * Serialize. @p indent 0 renders compact one-line JSON; > 0 pretty-
     * prints with that many spaces per level. Output is deterministic:
     * object members keep insertion order.
     */
    std::string dump(int indent = 0) const;

    /**
     * Parse @p text into @p out. Returns false (and fills @p error, when
     * non-null) on malformed input; @p out is untouched on failure.
     * Nesting beyond maxParseDepth (a hostile wire peer's stack-
     * exhaustion vector) is a parse error, not a crash.
     */
    static bool parse(std::string_view text, Json *out,
                      std::string *error = nullptr);

    /** Maximum container nesting parse() accepts. */
    static constexpr int maxParseDepth = 256;

  private:
    friend class JsonParser;

    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    int64_t int_ = 0;
    double double_ = 0.0;
    bool exact_ = false;  ///< print double_ with full precision
    std::string string_;  ///< String text, or Verbatim JSON bytes
    std::vector<Json> items_;
    std::vector<std::pair<std::string, Json>> members_;
};

} // namespace rtd::harness

#endif // RTDC_HARNESS_JSON_H
