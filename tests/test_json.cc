/**
 * @file
 * Tests for the minimal JSON layer behind the NDJSON service
 * protocol: strict parsing (documents, strings with escapes and
 * surrogate pairs, numbers), the typed accessors with fallbacks,
 * rejection of malformed input with a byte offset, the
 * response-side escaping helpers, and the Writer every report and
 * wire line goes through.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "support/json.hh"

namespace vliw {
namespace {

using json::Value;

TEST(Json, ParsesScalarsAndContainers)
{
    auto v = json::parse(
        R"({"s":"hi","n":-2.5,"i":42,"b":true,"z":null,)"
        R"("a":[1,"two",false],"o":{"k":"v"}})");
    ASSERT_TRUE(v);
    EXPECT_TRUE(v->isObject());
    EXPECT_EQ(v->getString("s"), "hi");
    EXPECT_DOUBLE_EQ(v->find("n")->asNumber(), -2.5);
    EXPECT_EQ(v->getInt("i"), 42);
    EXPECT_TRUE(v->getBool("b"));
    EXPECT_TRUE(v->find("z")->isNull());
    ASSERT_TRUE(v->find("a")->isArray());
    EXPECT_EQ(v->find("a")->items().size(), 3u);
    EXPECT_EQ(v->find("o")->getString("k"), "v");
    // Absent/mistyped keys fall back instead of throwing.
    EXPECT_EQ(v->getString("missing", "d"), "d");
    EXPECT_EQ(v->getInt("s", 7), 7);
    EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(Json, GetStringsFiltersNonStrings)
{
    auto v = json::parse(R"({"names":["a","b",3,"c"],"x":1})");
    ASSERT_TRUE(v);
    EXPECT_EQ(v->getStrings("names"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_TRUE(v->getStrings("x").empty());
    EXPECT_TRUE(v->getStrings("missing").empty());
}

TEST(Json, StringEscapesRoundTrip)
{
    auto v = json::parse(
        R"({"e":"quote \" slash \\ nl \n tab \t uni \u00e9"})");
    ASSERT_TRUE(v);
    EXPECT_EQ(v->getString("e"),
              "quote \" slash \\ nl \n tab \t uni \xc3\xa9");

    // Surrogate pair -> one 4-byte UTF-8 code point.
    auto pair = json::parse(R"(["\ud83d\ude00"])");
    ASSERT_TRUE(pair);
    EXPECT_EQ(pair->items().front().asString(), "\xf0\x9f\x98\x80");

    // quoted() is the inverse direction.
    EXPECT_EQ(json::quoted("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    EXPECT_EQ(json::quoted("x"), "\"x\"");
    EXPECT_EQ(json::quoted(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(Json, NumbersWithFractionsAndExponents)
{
    auto v = json::parse(R"([0, -0, 10.25, 1e3, -2E-2])");
    ASSERT_TRUE(v);
    const auto &items = v->items();
    ASSERT_EQ(items.size(), 5u);
    EXPECT_DOUBLE_EQ(items[2].asNumber(), 10.25);
    EXPECT_DOUBLE_EQ(items[3].asNumber(), 1000.0);
    EXPECT_DOUBLE_EQ(items[4].asNumber(), -0.02);
    EXPECT_EQ(items[3].asInt(), 1000);
}

TEST(Json, MalformedInputIsRejectedWithOffset)
{
    const char *bad[] = {
        "",            "{",       "{\"a\":}",   "[1,]",
        "{\"a\" 1}",   "tru",     "\"unterminated",
        "01x",         "1.e3",    "{\"a\":1} trailing",
        "\"bad \\q\"", "\"\\u12g4\"",
    };
    for (const char *text : bad) {
        std::string error;
        EXPECT_FALSE(json::parse(text, &error)) << text;
        EXPECT_NE(error.find("at byte"), std::string::npos) << text;
    }
    // Raw control characters must be escaped.
    EXPECT_FALSE(json::parse(std::string("\"a\nb\"")));
}

TEST(Json, DeepNestingIsAParseErrorNotAStackOverflow)
{
    // The daemon feeds untrusted stdin into this parser.
    const std::string bomb(100000, '[');
    std::string error;
    EXPECT_FALSE(json::parse(bomb, &error));
    EXPECT_NE(error.find("nesting"), std::string::npos);

    // 63 levels still parse fine.
    std::string ok(63, '[');
    ok += "1";
    ok += std::string(63, ']');
    EXPECT_TRUE(json::parse(ok));
    // Siblings do not accumulate depth.
    EXPECT_TRUE(json::parse(R"([[1],[2],[3],{"a":[4]}])"));
}

TEST(Json, OutOfRangeNumbersFallBackInAsInt)
{
    auto v = json::parse(R"({"huge":1e300,"neg":-1e300,"ok":7})");
    ASSERT_TRUE(v);
    // An unrepresentable double must not reach the (UB) cast.
    EXPECT_EQ(v->find("huge")->asInt(-1), -1);
    EXPECT_EQ(v->find("neg")->asInt(-1), -1);
    EXPECT_EQ(v->getInt("huge", 3), 3);
    EXPECT_EQ(v->getInt("ok"), 7);
}

TEST(Json, ObjectsKeepMemberOrderFirstMatchWins)
{
    auto v = json::parse(R"({"b":1,"a":2,"b":3})");
    ASSERT_TRUE(v);
    ASSERT_EQ(v->members().size(), 3u);
    EXPECT_EQ(v->members()[0].first, "b");
    EXPECT_EQ(v->members()[1].first, "a");
    EXPECT_EQ(v->find("b")->asInt(), 1);
}

using Layout = json::Writer::Layout;

TEST(JsonWriter, CommasInNestedObjectsAndArrays)
{
    std::string out;
    json::Writer w(out);
    w.beginObject().key("a").beginArray().value(1).beginObject();
    w.key("b").beginArray().endArray();
    w.key("c").beginObject().endObject();
    w.endObject().value("x").endArray();
    w.key("d").beginObject().member("e", false).endObject();
    w.endObject();
    EXPECT_EQ(out, R"({"a":[1,{"b":[],"c":{}},"x"],"d":{"e":false}})");

    // The report layout: the document's members and the records of
    // an array member one per line, everything deeper inline.
    std::string report;
    json::Writer r(report, Layout::Report);
    r.beginObject().key("rows").beginArray();
    r.beginObject().member("a", 1).key("b").beginArray();
    r.value(1).value(2).endArray().endObject();
    r.beginObject().endObject();
    r.endArray().key("n").beginObject().member("x", true);
    r.member("y", "z").endObject().member("gate", false).endObject();
    EXPECT_EQ(report, "{\n"
                      "  \"rows\": [\n"
                      "    {\"a\": 1, \"b\": [1, 2]},\n"
                      "    {}\n"
                      "  ],\n"
                      "  \"n\": {\"x\": true, \"y\": \"z\"},\n"
                      "  \"gate\": false\n"
                      "}");
}

TEST(JsonWriter, EmptyContainersInBothLayouts)
{
    for (const bool object : {true, false}) {
        std::string compact;
        json::Writer c(compact);
        std::string report;
        json::Writer r(report, Layout::Report);
        if (object) {
            c.beginObject().endObject();
            r.beginObject().endObject();
        } else {
            c.beginArray().endArray();
            r.beginArray().endArray();
        }
        EXPECT_EQ(compact, object ? "{}" : "[]");
        // A broken container closes on its own line even empty.
        EXPECT_EQ(report, object ? "{\n}" : "[\n]");
    }

    std::string report;
    json::Writer r(report, Layout::Report);
    r.beginObject().key("rows").beginArray().endArray();
    r.key("o").beginObject().endObject();
    r.key("a").beginObject().key("b").beginArray().endArray();
    r.endObject().endObject();
    EXPECT_EQ(report, "{\n  \"rows\": [\n  ],\n  \"o\": {},\n"
                      "  \"a\": {\"b\": []}\n}");
}

TEST(JsonWriter, EscapesKeysAndStrings)
{
    const std::string nasty = "q\"b\\s/\n\t\r\b\f\x01\x1f end";
    std::string out;
    json::Writer(out).beginObject().member(nasty, nasty).endObject();
    const std::string escaped =
        R"(q\"b\\s/\n\t\r\b\f\u0001\u001f end)";
    EXPECT_EQ(out, "{\"" + escaped + "\":\"" + escaped + "\"}");
    auto v = json::parse(out);
    ASSERT_TRUE(v);
    EXPECT_EQ(v->members().front().first, nasty);
    EXPECT_EQ(v->getString(nasty), nasty);
}

TEST(JsonWriter, IntegersKeepTheirFullWidth)
{
    std::string out;
    json::Writer(out)
        .beginArray()
        .value(std::numeric_limits<std::int64_t>::min())
        .value(std::numeric_limits<std::uint64_t>::max())
        .value(-1)
        .value(0u)
        .value(std::size_t(42))
        .value(short(-7))
        .endArray();
    EXPECT_EQ(out, "[-9223372036854775808,18446744073709551615,"
                   "-1,0,42,-7]");
}

TEST(JsonWriter, DoublesPrintAsTheStreamDoes)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double table[] = {0.281637, 1e-7,     1234567.8, 0.0,
                            -0.5,     0.225723, 3.0,       1e300,
                            -0.0,     123456.0, 1.0 / 3.0, 1e-5,
                            999999.5, inf,      -inf,      5e-324};
    for (const double d : table) {
        std::ostringstream os;
        os << d;
        std::string out;
        json::Writer(out).value(d);
        EXPECT_EQ(out, os.str()) << d;
    }
}

TEST(JsonWriter, RawTokensAreWrittenAsTheyAre)
{
    std::string out;
    json::Writer w(out, Layout::Report);
    w.beginObject().key("ms").beginObject().key("compile").raw("0.50");
    w.key("by_dataset").beginArray().raw("1.25").raw("2.50");
    w.endArray().endObject().endObject();
    EXPECT_EQ(out, "{\n  \"ms\": {\"compile\": 0.50, "
                   "\"by_dataset\": [1.25, 2.50]}\n}");
}

TEST(JsonWriter, ReusedBufferStartsAFreshDocument)
{
    std::string line;
    for (int i = 0; i < 3; ++i) {
        line.clear();
        json::Writer(line).beginObject().member("i", i).endObject();
        EXPECT_EQ(line, "{\"i\":" + std::to_string(i) + "}");
    }
}

TEST(JsonWriter, MisuseIsAnError)
{
    std::string out;
    json::Writer w(out);
    w.beginObject();
    EXPECT_THROW(w.endArray(), std::logic_error);
    EXPECT_THROW(w.value(1).endObject(), std::logic_error);
    std::string arr;
    json::Writer a(arr);
    a.beginArray();
    EXPECT_THROW(a.key("k"), std::logic_error);
}

/** Every line shape the daemon writes parses back. */
TEST(JsonWriter, ParserAcceptsEveryDaemonShape)
{
    std::deque<std::string> lines;    // emplace_back keeps references
    auto line = [&] {
        lines.emplace_back();
        json::Writer w(lines.back());
        return w;
    };
    auto cache = [](json::Writer &w) {
        w.beginObject();
        for (const char *k : {"hits", "misses", "evictions",
                              "store_hits", "run_evictions"})
            w.member(k, std::uint64_t(1) << 40);
        w.endObject();
    };
    line().beginObject().member("ok", false).member("op", "?")
        .member("error", "parse error: x at byte 0").endObject();
    line().beginObject().member("ok", true).member("op", "submit")
        .member("job", std::uint64_t(1)).member("id", "demo")
        .member("total", 2).endObject();
    line().beginObject().member("ok", false).member("op", "submit")
        .member("status", "overloaded").member("error", "full")
        .member("context", "cells 9 > 8").endObject();
    {
        json::Writer w = line();
        w.beginObject().member("event", "finished").member("job", 3)
            .member("status", "not-found").member("message", "m");
        cache(w.key("cache"));
        w.endObject();
    }
    line().beginObject().member("event", "cell-compiled")
        .member("job", 3).member("cell", std::size_t(0))
        .member("label", "gsmdec/interleaved/optimal:n2000/none")
        .member("solver", "budget-exhausted").endObject();
    {
        json::Writer w = line();
        w.beginObject().member("ok", true).member("op", "list-jobs");
        w.key("jobs").beginArray();
        for (int j = 1; j <= 2; ++j)
            w.beginObject().member("job", j).member("state", "done")
                .member("done", 1).member("total", 1).endObject();
        w.endArray().endObject();
    }
    line().beginObject().member("ok", true).member("op", "list-archs")
        .key("names").beginArray().value("interleaved")
        .value("unified1").endArray().endObject();
    line().beginObject().member("ok", true)
        .member("op", "register-workload").key("registered")
        .beginArray().endArray().endObject();
    {
        json::Writer w = line();
        w.beginObject().member("ok", true).member("op", "metrics");
        w.key("counters").beginObject()
            .member("a_total{kind=\"x\"}", std::uint64_t(5))
            .endObject();
        w.key("gauges").beginObject()
            .member("g", std::int64_t(-3)).endObject();
        w.key("histograms").beginObject().key("h").beginObject()
            .member("count", std::uint64_t(2)).member("sum_us", 12.5)
            .member("p50_us", 1e-7).member("p99_us", 1234567.8)
            .endObject().endObject();
        w.endObject();
    }
    line().beginObject().member("ok", true).member("op", "result")
        .member("job", 1).member("status", "ok")
        .member("completed", std::size_t(2)).member("failed", 0)
        .member("csv", "benchmark,arch\ngsmdec,interleaved\n")
        .endObject();
    line().beginObject().member("ok", true).member("op", "faults")
        .member("armed", "store.load=corrupt@2;serve.submit=error")
        .endObject();
    for (const std::string &text : lines) {
        std::string error;
        const auto v = json::parse(text, &error);
        ASSERT_TRUE(v) << error << ": " << text;
        EXPECT_TRUE(v->isObject()) << text;
    }
    EXPECT_EQ(json::parse(lines[4])->getString("solver"),
              "budget-exhausted");
    EXPECT_EQ(json::parse(lines[8])
                  ->find("histograms")
                  ->find("h")
                  ->getInt("count"),
              2);
}

} // namespace
} // namespace vliw
