/**
 * @file
 * The record codec: RecordWriter's exact bytes for every line form,
 * round trips through RecordReader, and the strict reader's refusal
 * of every byte sequence the writer cannot produce.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/error.hh"
#include "common/record.hh"

namespace mcd
{
namespace
{

RecordReader
reader(const std::string &text)
{
    return RecordReader(text, "test-site", "bad record");
}

TEST(Record, WriterFormsAreExact)
{
    RecordWriter w;
    w.line("tag-v1");
    w.u64("n", 0);
    w.u64("big", std::numeric_limits<std::uint64_t>::max());
    w.f64("one", 1.0);
    w.f64("neg_zero", -0.0);
    w.text("t", "a\\b\nc d");
    w.blob("b", "x\ny");
    w.begin("f");
    w.fieldU64(7);
    w.fieldF64(0.5);
    w.fieldText("p q\\");
    w.end();
    w.begin("empty");
    w.end();
    w.line("end");
    EXPECT_EQ(w.take(), "tag-v1\n"
                        "n=0\n"
                        "big=18446744073709551615\n"
                        "one=f64:3ff0000000000000\n"
                        "neg_zero=f64:8000000000000000\n"
                        "t=a\\\\b\\nc d\n"
                        "b*3\nx\ny\n"
                        "f=7 f64:3fe0000000000000 p q\\\\\n"
                        "empty=\n"
                        "end\n");
}

TEST(Record, ReaderRoundTripsEveryForm)
{
    RecordWriter w;
    w.line("tag-v1");
    w.u64("big", std::numeric_limits<std::uint64_t>::max());
    w.f64("inf", std::numeric_limits<double>::infinity());
    w.f64("nan", std::numeric_limits<double>::quiet_NaN());
    w.text("t", "a\\b\nc\\n");
    w.blob("b", std::string("x\n\0y", 4));
    w.begin("f");
    w.fieldU64(7);
    w.fieldF64(-2.25);
    w.fieldText("rest has spaces\n");
    w.end();
    w.begin("none");
    w.end();
    w.line("end");
    const std::string text = w.take();

    RecordReader r = reader(text);
    r.expectLine("tag-v1");
    EXPECT_EQ(r.u64("big"), std::numeric_limits<std::uint64_t>::max());
    EXPECT_TRUE(std::isinf(r.f64("inf")));
    EXPECT_TRUE(std::isnan(r.f64("nan")));
    EXPECT_EQ(r.text("t"), "a\\b\nc\\n");
    EXPECT_EQ(r.blob("b"), std::string("x\n\0y", 4));
    const auto tok = r.fields(r.value("f"), 3);
    ASSERT_EQ(tok.size(), 3u);
    EXPECT_EQ(r.parseU64(tok[0], "f"), 7u);
    EXPECT_EQ(r.parseF64(tok[1], "f"), -2.25);
    EXPECT_EQ(r.parseText(tok[2], "f"), "rest has spaces\n");
    EXPECT_TRUE(r.fields(r.value("none")).empty());
    r.expectLine("end");
    r.expectEnd();
}

/** @p text fails to read as the single line `key=<form>`. */
template <typename Read>
void
expectRejected(const std::string &text, Read read)
{
    RecordReader r = reader(text);
    try {
        read(r);
        FAIL() << "accepted '" << text << "'";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.site(), "test-site") << text;
        EXPECT_EQ(e.context().rfind("bad record: ", 0), 0u) << text;
    }
}

TEST(Record, DecimalsMustBeCanonical)
{
    const auto u64 = [](RecordReader &r) { r.u64("n"); };
    for (const char *bad :
         {"n=\n", "n= 5\n", "n=+5\n", "n=-5\n", "n= -5\n", "n=05\n",
          "n=00\n", "n=5 \n", "n=0x5\n", "n=18446744073709551616\n",
          "m=5\n", "nn=5\n", "n:5\n", "n=5"})
        expectRejected(bad, u64);
    expectRejected("n=11\n", [](RecordReader &r) { r.u64("n", 10); });
    EXPECT_EQ(reader("n=0\n").u64("n"), 0u);
}

TEST(Record, F64MustBeSixteenLowercaseHexDigits)
{
    const auto f64 = [](RecordReader &r) { r.f64("x"); };
    for (const char *bad :
         {"x=f64:0x00000000000001\n", "x=f64: 000000000000001\n",
          "x=f64:3FF0000000000000\n", "x=f64:3ff000000000000\n",
          "x=f64:3ff00000000000000\n", "x=F64:3ff0000000000000\n",
          "x=1.0\n", "x=f64:-ff0000000000000\n"})
        expectRejected(bad, f64);
}

TEST(Record, TextEscapesMustBeKnown)
{
    const auto text = [](RecordReader &r) { r.text("t"); };
    expectRejected("t=a\\qb\n", text);
    expectRejected("t=trailing\\\n", text);
    EXPECT_EQ(reader("t=\n").text("t"), "");
}

TEST(Record, BlobsMustFitAndTerminate)
{
    const auto blob = [](RecordReader &r) { r.blob("b"); };
    expectRejected("b*4\nabc\n", blob);
    expectRejected("b*2\nabc\n", blob);
    expectRejected("b*3\nabc", blob);
    expectRejected("b*18446744073709551615\nabc\n", blob);
    expectRejected("b*03\nabc\n", blob);
    expectRejected("b=3\nabc\n", blob);
    expectRejected("c*3\nabc\n", blob);
}

TEST(Record, FieldsMustBeSingleSpaced)
{
    const auto split = [](const std::string &v) {
        return [v](RecordReader &r) { r.fields(v); };
    };
    expectRejected("", split("a  b"));
    expectRejected("", split(" a"));
    expectRejected("", split("a "));
    // The last field of a bounded split keeps its spaces, but may not
    // be empty either.
    const std::string none;
    RecordReader r = reader(none);
    EXPECT_EQ(r.fields("a b c  d", 3).back(), "c  d");
    EXPECT_EQ(r.fields("a b", 3).size(), 2u);
    expectRejected("", [](RecordReader &rr) { rr.fields("a b ", 3); });
}

TEST(Record, TruncationAndTrailingBytesAreErrors)
{
    expectRejected("tag", [](RecordReader &r) { r.expectLine("tag"); });
    expectRejected("tag\n", [](RecordReader &r) { r.expectLine("tog"); });
    expectRejected("end\nx", [](RecordReader &r) {
        r.expectLine("end");
        r.expectEnd();
    });
}

} // namespace
} // namespace mcd
