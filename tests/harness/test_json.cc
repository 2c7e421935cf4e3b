/**
 * @file
 * Edge-case suite for the harness JSON model (harness/json.{h,cc}).
 *
 * The serve wire protocol made the parser's failure modes load-bearing:
 * a daemon must survive arbitrary bytes on its socket, and a decoded
 * job must mean exactly what was encoded. These tests pin the corners —
 * string escapes in both directions, CR/LF handling, non-finite
 * doubles, full-range 64-bit integers, exact double round-trips, the
 * bounded-depth guard that turns hostile nesting into a parse error
 * instead of a stack overflow, number text byte-identical to printf's,
 * number parsing identical to strtoll/strtod's, verbatim values, and a
 * seeded mutation fuzz of the parser over real wire documents.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "harness/artifact_cache.h"
#include "harness/json.h"
#include "harness/matrix.h"
#include "harness/runner.h"
#include "serve/wire.h"
#include "workload/benchmarks.h"

using namespace rtd;
using rtd::harness::Json;

// ---------------------------------------------------------------------
// String escapes
// ---------------------------------------------------------------------

TEST(JsonEdge, EscapedStringsRoundTrip)
{
    // Every escape the emitter produces, plus an embedded NUL.
    std::string nasty = "quote:\" backslash:\\ bell:\b feed:\f "
                        "newline:\n return:\r tab:\t";
    nasty.push_back('\0');
    nasty += "after-nul";

    Json doc = Json::object();
    doc.set("s", nasty);
    std::string text = doc.dump();
    // Control characters never appear raw in the output.
    for (char c : text)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u);

    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(text, &parsed, &error)) << error;
    EXPECT_EQ(parsed.get("s").asString(), nasty);
}

TEST(JsonEdge, ParsesStandardEscapesAndUnicode)
{
    Json out;
    ASSERT_TRUE(Json::parse(R"("a\/b A é €")", &out));
    // A = 'A'; é and € decode to their UTF-8 bytes.
    EXPECT_EQ(out.asString(), "a/b A \xc3\xa9 \xe2\x82\xac");
}

TEST(JsonEdge, RejectsBadEscapes)
{
    Json out;
    EXPECT_FALSE(Json::parse(R"("\q")", &out));      // unknown escape
    EXPECT_FALSE(Json::parse(R"("\u12")", &out));    // truncated \u
    EXPECT_FALSE(Json::parse(R"("\u12zq")", &out));  // non-hex \u
    EXPECT_FALSE(Json::parse("\"dangling\\", &out)); // escape at EOF
    EXPECT_FALSE(Json::parse("\"unterminated", &out));
}

TEST(JsonEdge, CrLfWhitespaceIsInsignificant)
{
    // A peer that frames lines with \r\n (or pretty-prints with either
    // convention) must parse identically to compact JSON.
    Json a, b;
    ASSERT_TRUE(Json::parse("{\"x\":\t[1,\r\n 2,\r\n 3]\r\n}\r\n", &a));
    ASSERT_TRUE(Json::parse("{\"x\":[1,2,3]}", &b));
    EXPECT_EQ(a.dump(), b.dump());
    // ...but a *literal* CR inside a string is data, not framing.
    Json s;
    ASSERT_TRUE(Json::parse("\"a\\r\\nb\"", &s));
    EXPECT_EQ(s.asString(), "a\r\nb");
}

// ---------------------------------------------------------------------
// Numbers
// ---------------------------------------------------------------------

TEST(JsonEdge, NonFiniteDoublesDegradeToNull)
{
    // JSON has no NaN/Infinity literal; emitting one would hand an
    // unparseable line to the wire peer. The conventional mapping is
    // null, on construction (so dump() can never misfire).
    EXPECT_TRUE(Json(std::nan("")).isNull());
    EXPECT_TRUE(Json(std::numeric_limits<double>::infinity()).isNull());
    EXPECT_TRUE(Json(-std::numeric_limits<double>::infinity()).isNull());
    EXPECT_TRUE(Json::exactDouble(std::nan("")).isNull());

    Json doc = Json::object();
    doc.set("bad", std::nan(""));
    EXPECT_EQ(doc.dump(), "{\"bad\":null}");
    Json back;
    ASSERT_TRUE(Json::parse(doc.dump(), &back));
    EXPECT_TRUE(back.get("bad").isNull());
}

TEST(JsonEdge, Int64ExtremesRoundTripExactly)
{
    Json doc = Json::object();
    doc.set("min", std::numeric_limits<int64_t>::min());
    doc.set("max", std::numeric_limits<int64_t>::max());
    doc.set("u53", uint64_t{1} << 53);  // past double's exact range

    Json back;
    std::string error;
    ASSERT_TRUE(Json::parse(doc.dump(), &back, &error)) << error;
    EXPECT_EQ(back.get("min").kind(), Json::Kind::Int);
    EXPECT_EQ(back.get("min").asInt(),
              std::numeric_limits<int64_t>::min());
    EXPECT_EQ(back.get("max").asInt(),
              std::numeric_limits<int64_t>::max());
    EXPECT_EQ(back.get("u53").asInt(), int64_t{1} << 53);
}

TEST(JsonEdge, IntegerOverflowFallsBackToDouble)
{
    // One past INT64_MAX cannot stay integral; it degrades to the
    // nearest double instead of failing the whole document.
    Json out;
    ASSERT_TRUE(Json::parse("9223372036854775808", &out));
    EXPECT_EQ(out.kind(), Json::Kind::Double);
    EXPECT_DOUBLE_EQ(out.asDouble(), 9223372036854775808.0);
}

TEST(JsonEdge, ExactDoubleRoundTripsBitForBit)
{
    // %.10g (the sinks' compact default) loses bits on purpose; the
    // wire codecs use exactDouble to get them all back.
    const double values[] = {0.1, 1.0 / 3.0, 2.515, 6.02214076e23,
                             -1.7976931348623157e308, 5e-324};
    for (double v : values) {
        Json back;
        ASSERT_TRUE(Json::parse(Json::exactDouble(v).dump(), &back));
        EXPECT_EQ(back.asDouble(), v) << v;
    }
}

TEST(JsonEdge, RejectsMalformedNumbers)
{
    Json out;
    EXPECT_FALSE(Json::parse("1.2.3", &out));
    EXPECT_FALSE(Json::parse("1e", &out));
    EXPECT_FALSE(Json::parse("-", &out));
    EXPECT_FALSE(Json::parse("0x10", &out));
}

// ---------------------------------------------------------------------
// Nesting depth
// ---------------------------------------------------------------------

namespace {

std::string
nested(int depth, char open, char close)
{
    std::string text(depth, open);
    text.append(depth, close);
    return text;
}

} // namespace

TEST(JsonEdge, DeepNestingWithinLimitParses)
{
    Json out;
    std::string error;
    ASSERT_TRUE(Json::parse(nested(Json::maxParseDepth, '[', ']'), &out,
                            &error))
        << error;
}

TEST(JsonEdge, HostileNestingIsAParseErrorNotACrash)
{
    // One level past the limit, and *far* past it (the case that would
    // smash the stack without the guard).
    Json out;
    std::string error;
    EXPECT_FALSE(Json::parse(nested(Json::maxParseDepth + 1, '[', ']'),
                             &out, &error));
    EXPECT_NE(error.find("nesting"), std::string::npos);
    EXPECT_FALSE(
        Json::parse(nested(100000, '[', ']'), &out, &error));

    // Mixed object/array nesting hits the same guard.
    std::string mixed;
    for (int i = 0; i < Json::maxParseDepth + 1; ++i)
        mixed += "{\"k\":[";
    EXPECT_FALSE(Json::parse(mixed, &out, &error));
}

TEST(JsonEdge, DuplicateObjectKeysKeepTheFirst)
{
    Json out;
    ASSERT_TRUE(Json::parse("{\"k\":1,\"k\":2}", &out));
    EXPECT_EQ(out.get("k").asInt(), 1);
    EXPECT_EQ(out.size(), 1u);
}

// ---------------------------------------------------------------------
// Number text: dump() writes what printf writes, parse() reads what
// strtoll/strtod read
// ---------------------------------------------------------------------

namespace {

std::string
printfText(const char *format, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, format, value);
    return buf;
}

/** The doubles whose text is easiest to get wrong, then @p random
 *  finite doubles drawn from uniformly random bit patterns. */
std::vector<double>
formattingDoubles(size_t random)
{
    std::vector<double> values = {
        0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 1.0 / 3.0, 2.0 / 3.0, 123456789.0,
        1234567890.0, 12345678901.0, 9999999999.0, 99999999995.0,
        0.00001, 0.0001, 0.001, 1e-5, 9.9999999995e-5, 1e15, 1e16, 1e17,
        1e21, 1e22, 1e23, DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN,
        DBL_TRUE_MIN, -DBL_TRUE_MIN, DBL_MIN / 2, DBL_MIN - DBL_TRUE_MIN,
        DBL_EPSILON, 9007199254740993.0, 4.35, 2.675, 0.30000000000000004};
    // Every power of ten, and its neighbours on both sides.
    for (int e = -323; e <= 308; ++e) {
        double p = std::strtod(("1e" + std::to_string(e)).c_str(), nullptr);
        values.push_back(p);
        values.push_back(std::nextafter(p, 0.0));
        values.push_back(std::nextafter(p, HUGE_VAL));
        values.push_back(-p);
    }
    std::mt19937_64 rng(20260101);
    while (random--) {
        double d;
        do {
            uint64_t bits = rng();
            std::memcpy(&d, &bits, sizeof d);
        } while (!std::isfinite(d));
        values.push_back(d);
        // Short decimals (the common case in rows and specs) too.
        values.push_back(static_cast<double>(rng() % 2000001) / 1000.0 -
                         1000.0);
    }
    return values;
}

} // namespace

TEST(JsonFormat, DumpsNumbersExactlyAsPrintf)
{
    std::vector<double> doubles = formattingDoubles(60000);
    ASSERT_GE(doubles.size(), 100000u);
    for (double d : doubles) {
        ASSERT_EQ(Json(d).dump(), printfText("%.10g", d))
            << printfText("%a", d);
        ASSERT_EQ(Json::exactDouble(d).dump(), printfText("%.17g", d))
            << printfText("%a", d);
    }

    std::vector<int64_t> ints = {0,
                                 1,
                                 -1,
                                 9,
                                 10,
                                 -10,
                                 std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::min() + 1,
                                 std::numeric_limits<int64_t>::max(),
                                 std::numeric_limits<int64_t>::max() - 1};
    for (int64_t p = 10; p <= std::numeric_limits<int64_t>::max() / 10;
         p *= 10) {
        ints.push_back(p);
        ints.push_back(p - 1);
        ints.push_back(-p);
    }
    std::mt19937_64 rng(7);
    for (int i = 0; i < 100000; ++i) {
        int64_t v = static_cast<int64_t>(rng());
        ints.push_back(v >> (rng() % 64));  // every magnitude
    }
    for (int64_t v : ints) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
        ASSERT_EQ(Json(v).dump(), buf);
    }
}

namespace {

/**
 * The number grammar as strtoll/strtod define it: an all-digit token
 * (optional leading '-') that strtoll takes whole is an integer,
 * anything else must be taken whole by strtod. Returns false to reject.
 */
bool
referenceNumber(const std::string &token, Json &out)
{
    bool integral = !token.empty();
    for (size_t i = 0; i < token.size(); ++i) {
        char c = token[i];
        if (!(c >= '0' && c <= '9') && !(c == '-' && i == 0))
            integral = false;
    }
    if (integral) {
        errno = 0;
        char *end = nullptr;
        long long v = std::strtoll(token.c_str(), &end, 10);
        if (errno == 0 && end && *end == '\0') {
            out = Json(static_cast<int64_t>(v));
            return true;
        }
    }
    char *end = nullptr;
    double d = std::strtod(token.c_str(), &end);
    if (!end || *end != '\0' || token.empty())
        return false;
    out = Json(d);
    return true;
}

} // namespace

TEST(JsonFormat, ParsesNumbersExactlyAsStrtodAndStrtoll)
{
    std::vector<std::string> tokens = {
        "0", "-0", "-", "+", ".", "e", "1e999", "-1e999", "1e-999",
        "1e-320", "4.9406564584124654e-324", "2.4703282292062328e-324",
        "2.2250738585072011e-308", "1-2", "1e5-2", "+1", "+.5e-3", "1.",
        ".5", "-.5", "0.", "007", "-007", "1e", "1e+", "1E+5", "--1",
        "9223372036854775807", "9223372036854775808",
        "-9223372036854775808", "-9223372036854775809",
        "18446744073709551616", "1.7976931348623157e308",
        "1.7976931348623159e308", "179769313486231580793728971405303415"
        "0799999999999999999999999999999999999999999999999999999999999"
        "9999999999999999999999999999999999999999999999999999999999999"
        "9999999999999999999999999999999999999999999999999999999999999"
        "9999999999999999999999999999999999999999999999999999999999999"
        "99999999999999999999999.0",
        "0." + std::string(400, '0') + "1e400"};
    std::mt19937_64 rng(11);
    const char alphabet[] = "0123456789.eE+-";
    for (int i = 0; i < 200000; ++i) {
        std::string token;
        size_t len = 1 + rng() % 24;
        for (size_t k = 0; k < len; ++k) {
            // Mostly digits, so that many tokens are well-formed.
            token += rng() % 3 ? alphabet[rng() % 10]
                               : alphabet[rng() % 15];
        }
        tokens.push_back(token);
    }
    for (const std::string &token : tokens) {
        Json want, got;
        bool accepted = referenceNumber(token, want);
        std::string error;
        ASSERT_EQ(Json::parse(token, &got, &error), accepted) << token;
        if (!accepted) {
            EXPECT_FALSE(error.empty()) << token;
            continue;
        }
        ASSERT_EQ(got.kind(), want.kind()) << token;
        if (got.kind() == Json::Kind::Int) {
            ASSERT_EQ(got.asInt(), want.asInt()) << token;
        } else if (got.kind() == Json::Kind::Double) {
            double a = got.asDouble(), b = want.asDouble();
            ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0) << token;
        }
    }
}

// ---------------------------------------------------------------------
// Verbatim values
// ---------------------------------------------------------------------

TEST(JsonVerbatim, DumpsItsBytesUnchangedAndParsingNeverMakesOne)
{
    // A row whose double needs 17 digits: a parse + dump would round it.
    const std::string row = R"({"wallSeconds":0.33333333333333331,"ok":true})";
    Json line = Json::object();
    line.set("job", 3);
    line.set("result", Json::verbatim(row));
    EXPECT_EQ(line.dump(), R"({"job":3,"result":)" + row + "}");

    Json parsed;
    ASSERT_TRUE(Json::parse(line.dump(), &parsed));
    EXPECT_EQ(parsed.get("result").kind(), Json::Kind::Object);
    EXPECT_EQ(parsed.get("result").get("wallSeconds").asDouble(),
              1.0 / 3.0);
    EXPECT_NE(parsed.get("result").dump(), row);  // "%.10g" on re-dump
}

// ---------------------------------------------------------------------
// Seeded mutation fuzz over real wire documents: the parser, then the
// serve/wire decoders
// ---------------------------------------------------------------------

namespace {

/** The documents the serve protocol parses most: an encoded matrix
 *  job, an encoded JobResult of a real run, and a SweepBegin payload. */
std::vector<std::string>
wireCorpus()
{
    harness::MatrixAxes axes = harness::MatrixAxes::defaults();
    axes.scale = 0.05;
    std::vector<harness::Job> matrix = harness::buildMatrixJobs(axes);
    std::string job = serve::encodeJob(matrix.back()).dump();

    harness::Job tiny;
    tiny.tag = "fuzz";
    tiny.workload = workload::tinySpec(3);
    tiny.config.cpu = core::paperMachine(4 * 1024);
    tiny.config.scheme = compress::Scheme::Dictionary;
    harness::ArtifactCache cache;
    harness::JobResult result = harness::executeJob(tiny, cache, nullptr);
    result.wallSeconds = 1.0 / 3.0;
    std::string row = serve::encodeJobResult(result).dump();

    std::vector<std::string> jobs = {job,
                                     serve::encodeJob(matrix[0]).dump()};
    Json begin = Json::object();
    begin.set("id", serve::sweepContentId("fuzz", jobs));
    begin.set("label", "fuzz \"quoted\"\n");
    Json list = Json::array();
    for (const std::string &text : jobs)
        list.push(Json::verbatim(text));
    begin.set("jobs", std::move(list));
    return {job, row, begin.dump()};
}

} // namespace

TEST(JsonFuzz, SeededMutationsAreRejectedOrRoundTrip)
{
    const std::vector<std::string> corpus = wireCorpus();
    for (const std::string &text : corpus) {
        Json parsed;
        ASSERT_TRUE(Json::parse(text, &parsed)) << text;
    }
    size_t rejected = 0, accepted = 0, decoded = 0;
    for (uint64_t seed = 0; seed < 3000; ++seed) {
        std::mt19937_64 rng(seed);
        std::string text = corpus[seed % corpus.size()];
        switch (rng() % 3) {
          case 0: {  // flip 1-3 bytes
            int flips = 1 + static_cast<int>(rng() % 3);
            for (int i = 0; i < flips; ++i) {
                size_t at = rng() % text.size();
                text[at] = static_cast<char>(text[at] ^ (1 + rng() % 255));
            }
            break;
          }
          case 1:  // truncate
            text.resize(rng() % text.size());
            break;
          default: {  // extend: random bytes, or a copy of a slice
            if (rng() % 2) {
                size_t n = 1 + rng() % 16;
                while (n--)
                    text.push_back(static_cast<char>(rng() % 256));
            } else {
                size_t from = rng() % text.size();
                size_t len = 1 + rng() % (text.size() - from);
                size_t at = rng() % (text.size() + 1);
                text.insert(at, text.substr(from, len));
            }
            break;
          }
        }
        Json value;
        std::string error;
        if (!Json::parse(text, &value, &error)) {
            EXPECT_FALSE(error.empty()) << "seed " << seed;
            ++rejected;
            continue;
        }
        ++accepted;
        std::string dumped = value.dump();
        Json again;
        ASSERT_TRUE(Json::parse(dumped, &again, &error))
            << "seed " << seed << ": " << error;
        ASSERT_EQ(again.dump(), dumped) << "seed " << seed;

        // The wire decoders take what parses: each either rejects the
        // value or decodes one whose encoding is a fixed point.
        harness::Job job;
        if (serve::decodeJob(value, job)) {
            ++decoded;
            std::string canonical = serve::encodeJob(job).dump();
            harness::Job back;
            ASSERT_TRUE(Json::parse(canonical, &again));
            ASSERT_TRUE(serve::decodeJob(again, back)) << "seed " << seed;
            ASSERT_EQ(serve::encodeJob(back).dump(), canonical)
                << "seed " << seed;
        }
        harness::JobResult row;
        if (serve::decodeJobResult(value, row)) {
            ++decoded;
            std::string canonical = serve::encodeJobResult(row).dump();
            harness::JobResult back;
            ASSERT_TRUE(Json::parse(canonical, &again));
            ASSERT_TRUE(serve::decodeJobResult(again, back))
                << "seed " << seed;
            ASSERT_EQ(serve::encodeJobResult(back).dump(), canonical)
                << "seed " << seed;
        }
    }
    // Every outcome is exercised.
    EXPECT_GT(rejected, 100u);
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(decoded, 10u);
}
