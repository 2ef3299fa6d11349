//===- tests/support_test.cpp - support library unit tests ----------------===//

#include "support/BitVector.h"
#include "support/CommandLine.h"
#include "support/Diag.h"
#include "support/ParseNumber.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace cta;

TEST(BitVector, BasicSetTest) {
  BitVector V(130);
  EXPECT_EQ(V.size(), 130u);
  EXPECT_TRUE(V.none());
  V.set(0);
  V.set(64);
  V.set(129);
  EXPECT_TRUE(V.test(0));
  EXPECT_TRUE(V.test(64));
  EXPECT_TRUE(V.test(129));
  EXPECT_FALSE(V.test(1));
  EXPECT_EQ(V.count(), 3u);
  V.reset(64);
  EXPECT_FALSE(V.test(64));
  EXPECT_EQ(V.count(), 2u);
}

TEST(BitVector, FindFirstNext) {
  BitVector V(200);
  EXPECT_EQ(V.findFirst(), -1);
  V.set(3);
  V.set(130);
  EXPECT_EQ(V.findFirst(), 3);
  EXPECT_EQ(V.findNext(4), 130);
  EXPECT_EQ(V.findNext(131), -1);
}

TEST(BitVector, DotAndHamming) {
  BitVector A(100), B(100);
  A.set(1);
  A.set(50);
  A.set(99);
  B.set(50);
  B.set(99);
  B.set(3);
  EXPECT_EQ(A.dot(B), 2u);
  EXPECT_EQ(A.hammingDistance(B), 2u);
  EXPECT_EQ((A & B).count(), 2u);
  EXPECT_EQ((A | B).count(), 4u);
  EXPECT_EQ((A ^ B).count(), 2u);
}

TEST(BitVector, SetAllRespectsSize) {
  BitVector V(70);
  V.setAll();
  EXPECT_EQ(V.count(), 70u);
  V.resetAll();
  EXPECT_TRUE(V.none());
}

TEST(BitVector, ResizeKeepsBits) {
  BitVector V(10);
  V.set(9);
  V.resize(100);
  EXPECT_TRUE(V.test(9));
  EXPECT_EQ(V.count(), 1u);
}

TEST(Random, Deterministic) {
  SplitMix64 A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, BoundedStaysInRange) {
  SplitMix64 R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(13), 13u);
}

TEST(Random, DoubleInUnitInterval) {
  SplitMix64 R(9);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(ParseNumber, AcceptsPlainDecimals) {
  EXPECT_EQ(parseUint64("0"), std::optional<std::uint64_t>(0));
  EXPECT_EQ(parseUint64("42"), std::optional<std::uint64_t>(42));
  EXPECT_EQ(parseUint64("007"), std::optional<std::uint64_t>(7));
  EXPECT_EQ(parseUint64("18446744073709551615"),
            std::optional<std::uint64_t>(UINT64_MAX));
}

TEST(ParseNumber, RejectsGarbageSignsAndWhitespace) {
  EXPECT_FALSE(parseUint64(""));
  EXPECT_FALSE(parseUint64("8x"));     // strtoul would return 8
  EXPECT_FALSE(parseUint64("abc"));    // strtoul would return 0
  EXPECT_FALSE(parseUint64("-1"));
  EXPECT_FALSE(parseUint64("+4"));
  EXPECT_FALSE(parseUint64(" 4"));
  EXPECT_FALSE(parseUint64("4 "));
  EXPECT_FALSE(parseUint64("0x10"));
  EXPECT_FALSE(parseUint64("1e3"));
}

TEST(ParseNumber, RejectsOverflowAndAboveMax) {
  EXPECT_FALSE(parseUint64("18446744073709551616")); // UINT64_MAX + 1
  EXPECT_FALSE(parseUint64("99999999999999999999999"));
  EXPECT_FALSE(parseUint64("101", 100));
  EXPECT_EQ(parseUint64("100", 100), std::optional<std::uint64_t>(100));
}

TEST(ParseNumber, FiniteDoublesOnly) {
  EXPECT_EQ(parseFiniteDouble("0.5"), std::optional<double>(0.5));
  EXPECT_EQ(parseFiniteDouble("3.125e-2"), std::optional<double>(0.03125));
  EXPECT_EQ(parseFiniteDouble("-2"), std::optional<double>(-2.0));
  for (const char *Bad : {"", "inf", "-inf", "nan", "1e999", "0.5x", " 0.5",
                          "+0.5", "0x1p-5"})
    EXPECT_FALSE(parseFiniteDouble(Bad)) << Bad;
}

TEST(ParseNumberDeathTest, OrDieNamesTheSetting) {
  EXPECT_EQ(parseUint64OrDie("--jobs", "6"), 6u);
  EXPECT_DEATH(parseUint64OrDie("CTA_TRACE_CACHE_BYTES", "1MB"),
               "CTA_TRACE_CACHE_BYTES");
  // A rejected value is a usage error: exit status 1, not an abort.
  EXPECT_EXIT(parseUint64OrDie("--block-size", "-1"),
              ::testing::ExitedWithCode(1), "--block-size");
  EXPECT_DOUBLE_EQ(parseFiniteDoubleOrDie("--alpha", "0.25"), 0.25);
  EXPECT_EXIT(parseFiniteDoubleOrDie("--alpha", "nan"),
              ::testing::ExitedWithCode(1), "--alpha");
}

TEST(CommandLine, MatchesBothValueFormsAndBareFlags) {
  const std::vector<std::string> Args = {"--jobs=3", "--jobs", "4",
                                         "--once",   "--log=",  "pos"};
  std::string Value;
  std::size_t I = 0;
  EXPECT_TRUE(matchFlag(Args, I, "--jobs", &Value));
  EXPECT_EQ(Value, "3");
  EXPECT_EQ(I, 0u);
  I = 1;
  EXPECT_TRUE(matchFlag(Args, I, "--jobs", &Value));
  EXPECT_EQ(Value, "4");
  EXPECT_EQ(I, 2u); // past the separate value
  I = 3;
  EXPECT_TRUE(matchFlag(Args, I, "--once"));
  EXPECT_EQ(I, 3u);
  I = 4;
  EXPECT_TRUE(matchFlag(Args, I, "--log", &Value));
  EXPECT_EQ(Value, ""); // `=` with nothing after it is an empty value
  I = 5;
  EXPECT_FALSE(matchFlag(Args, I, "--jobs", &Value));
  EXPECT_FALSE(matchFlag(Args, I, "--once"));
  EXPECT_EQ(I, 5u);
}

TEST(CommandLine, RejectsPrefixesAndValuesOnBareFlags) {
  const std::vector<std::string> Args = {"--jobsx", "--jobsx=5", "--once=1",
                                         "--jo"};
  std::string Value;
  for (std::size_t I = 0; I != Args.size(); ++I) {
    const std::size_t At = I;
    EXPECT_FALSE(matchFlag(Args, I, "--jobs", &Value)) << Args[At];
    EXPECT_FALSE(matchFlag(Args, I, "--once")) << Args[At];
    EXPECT_EQ(I, At);
  }
}

TEST(CommandLineDeathTest, UsageErrorsExitOne) {
  const std::vector<std::string> Args = {"--socket", "s", "--jobs"};
  std::size_t I = 2;
  std::string Value;
  EXPECT_EXIT(matchFlag(Args, I, "--jobs", &Value),
              ::testing::ExitedWithCode(1), "--jobs needs a value");
  EXPECT_EXIT(
      {
        setUsageText("usage: cta ...\n");
        reportUsageError("bad flag");
      },
      ::testing::ExitedWithCode(1), "cta: error: bad flag\nusage: cta");
}

TEST(StringUtils, Formatting) {
  EXPECT_EQ(formatDouble(1.234, 2), "1.23");
  EXPECT_EQ(formatPercent(0.163), "16.3%");
  EXPECT_EQ(formatByteSize(2048), "2KB");
  EXPECT_EQ(formatByteSize(3 * 1024 * 1024), "3MB");
  EXPECT_EQ(formatByteSize(1000), "1000B");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
}

TEST(TextTable, RendersAligned) {
  TextTable T({"name", "value"});
  T.addRow({"x", "1"});
  T.addRow({"longer", "12345"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("12345"), std::string::npos);
  // Header separator present.
  EXPECT_NE(Out.find("----"), std::string::npos);
}

TEST(TextTable, EmptyTableRendersHeaderAndSeparatorOnly) {
  TextTable T({"app", "cycles"});
  std::string Out = T.render();
  // Header line + separator line, nothing else.
  EXPECT_EQ(Out, "app  cycles\n-----------\n");
}

TEST(TextTable, SingleColumn) {
  TextTable T({"machine"});
  T.addRow({"dunnington"});
  T.addRow({"nehalem"});
  // One column: left aligned, no inter-column padding, separator spans the
  // widest cell.
  EXPECT_EQ(T.render(), "machine   \n----------\ndunnington\nnehalem   \n");
}

TEST(TextTable, CellsWiderThanHeadersWidenTheColumn) {
  TextTable T({"a", "b"});
  T.addRow({"wide-label", "123456789"});
  T.addRow({"x", "1"});
  std::string Out = T.render();
  // First column left aligned and padded to the widest cell; second
  // column right aligned.
  EXPECT_EQ(Out, "a                   b\n"
                 "---------------------\n"
                 "wide-label  123456789\n"
                 "x                   1\n");
}

//===----------------------------------------------------------------------===//
// Diag: source locations and caret rendering
//===----------------------------------------------------------------------===//

TEST(Diag, LocForOffset) {
  std::string Src = "ab\ncd\n\nef";
  EXPECT_EQ(locForOffset(Src, 0), (SourceLoc{1, 1}));
  EXPECT_EQ(locForOffset(Src, 1), (SourceLoc{1, 2}));
  EXPECT_EQ(locForOffset(Src, 2), (SourceLoc{1, 3})); // the '\n' itself
  EXPECT_EQ(locForOffset(Src, 3), (SourceLoc{2, 1}));
  EXPECT_EQ(locForOffset(Src, 6), (SourceLoc{3, 1})); // empty line
  EXPECT_EQ(locForOffset(Src, 7), (SourceLoc{4, 1}));
  EXPECT_EQ(locForOffset(Src, 9), (SourceLoc{4, 3}));
  // Out-of-range offsets clamp to the end of the text.
  EXPECT_EQ(locForOffset(Src, 1000), (SourceLoc{4, 3}));
}

TEST(Diag, SourceLine) {
  std::string Src = "first\nsecond\n\nlast";
  EXPECT_EQ(sourceLine(Src, 1), "first");
  EXPECT_EQ(sourceLine(Src, 2), "second");
  EXPECT_EQ(sourceLine(Src, 3), "");
  EXPECT_EQ(sourceLine(Src, 4), "last");
  EXPECT_EQ(sourceLine(Src, 5), "");
}

TEST(Diag, RenderDiagWithCaret) {
  std::string Src = "read Q[i];\n";
  EXPECT_EQ(renderDiag("f.cta", {1, 6}, "unknown array 'Q'", Src, 1),
            "f.cta:1:6: error: unknown array 'Q'\n"
            "  read Q[i];\n"
            "       ^");
  // CaretLen underlines the token width.
  EXPECT_EQ(renderDiag("f.cta", {1, 1}, "bad keyword", Src, 4),
            "f.cta:1:1: error: bad keyword\n"
            "  read Q[i];\n"
            "  ^~~~");
}

TEST(Diag, CaretNeverExtendsPastTheLine) {
  std::string Src = "abc";
  EXPECT_EQ(renderDiag("f", {1, 2}, "m", Src, 99), "f:1:2: error: m\n"
                                                   "  abc\n"
                                                   "   ^~");
}

TEST(Diag, SnippetOmittedWhenColumnBeyondLine) {
  // Column one past the end still renders (EOF carets); further out the
  // snippet is dropped and only the message line remains.
  std::string Src = "ab";
  EXPECT_EQ(renderDiag("f", {1, 3}, "m", Src), "f:1:3: error: m\n"
                                               "  ab\n"
                                               "    ^");
  EXPECT_EQ(renderDiag("f", {1, 9}, "m", Src), "f:1:9: error: m");
  EXPECT_EQ(renderDiag("f", {2, 1}, "m", Src), "f:2:1: error: m");
}
