#include "common/flags.h"

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace desalign::common {
namespace {

std::vector<const char*> Argv(std::initializer_list<const char*> args) {
  return std::vector<const char*>(args);
}

TEST(FlagParserTest, DefaultsAppliedBeforeParse) {
  FlagParser parser("test");
  std::string s;
  int64_t i;
  double d;
  bool b;
  parser.AddString("name", "fallback", "", &s);
  parser.AddInt64("count", 42, "", &i);
  parser.AddDouble("ratio", 0.5, "", &d);
  parser.AddBool("fast", true, "", &b);
  EXPECT_EQ(s, "fallback");
  EXPECT_EQ(i, 42);
  EXPECT_DOUBLE_EQ(d, 0.5);
  EXPECT_TRUE(b);
}

TEST(FlagParserTest, ParsesEqualsAndSpaceSyntax) {
  FlagParser parser("test");
  std::string s;
  int64_t i;
  parser.AddString("name", "", "", &s);
  parser.AddInt64("count", 0, "", &i);
  auto argv = Argv({"--name=abc", "--count", "17"});
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data(), 0)
                  .ok());
  EXPECT_EQ(s, "abc");
  EXPECT_EQ(i, 17);
}

TEST(FlagParserTest, BoolForms) {
  FlagParser parser("test");
  bool a;
  bool b;
  bool c;
  parser.AddBool("alpha", false, "", &a);
  parser.AddBool("beta", true, "", &b);
  parser.AddBool("gamma", false, "", &c);
  auto argv = Argv({"--alpha", "--no-beta", "--gamma=true"});
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data(), 0)
                  .ok());
  EXPECT_TRUE(a);
  EXPECT_FALSE(b);
  EXPECT_TRUE(c);
}

TEST(FlagParserTest, CollectsPositionals) {
  FlagParser parser("test");
  int64_t i;
  parser.AddInt64("n", 0, "", &i);
  auto argv = Argv({"first", "--n=3", "second"});
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data(), 0)
                  .ok());
  ASSERT_EQ(parser.positional().size(), 2u);
  EXPECT_EQ(parser.positional()[0], "first");
  EXPECT_EQ(parser.positional()[1], "second");
}

TEST(FlagParserTest, UnknownFlagIsError) {
  FlagParser parser("test");
  auto argv = Argv({"--bogus=1"});
  auto status = parser.Parse(static_cast<int>(argv.size()), argv.data(), 0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(FlagParserTest, MalformedNumbersAreErrors) {
  FlagParser parser("test");
  int64_t i;
  double d;
  parser.AddInt64("count", 0, "", &i);
  parser.AddDouble("ratio", 0, "", &d);
  {
    auto argv = Argv({"--count=abc"});
    EXPECT_FALSE(
        parser.Parse(static_cast<int>(argv.size()), argv.data(), 0).ok());
  }
  {
    auto argv = Argv({"--ratio=1.2.3"});
    EXPECT_FALSE(
        parser.Parse(static_cast<int>(argv.size()), argv.data(), 0).ok());
  }
}

TEST(FlagParserTest, MissingValueIsError) {
  FlagParser parser("test");
  std::string s;
  parser.AddString("name", "", "", &s);
  auto argv = Argv({"--name"});
  EXPECT_FALSE(
      parser.Parse(static_cast<int>(argv.size()), argv.data(), 0).ok());
}

TEST(FlagParserTest, HelpShortCircuits) {
  FlagParser parser("test tool");
  auto argv = Argv({"--help"});
  auto status = parser.Parse(static_cast<int>(argv.size()), argv.data(), 0);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(FlagParserTest, UsageListsFlagsAndDefaults) {
  FlagParser parser("my tool");
  int64_t i;
  parser.AddInt64("epochs", 60, "training epochs", &i);
  const std::string usage = parser.Usage();
  EXPECT_NE(usage.find("my tool"), std::string::npos);
  EXPECT_NE(usage.find("--epochs"), std::string::npos);
  EXPECT_NE(usage.find("60"), std::string::npos);
  EXPECT_NE(usage.find("training epochs"), std::string::npos);
}

TEST(ParseListsTest, DoubleList) {
  auto r = ParseDoubleList("0.1, 0.5 ,1");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 3u);
  EXPECT_DOUBLE_EQ(r.value()[1], 0.5);
  EXPECT_FALSE(ParseDoubleList("1,x").ok());
  EXPECT_TRUE(ParseDoubleList("").ok());
}

TEST(ParseListsTest, DoubleListRejectsNonFinite) {
  for (const char* text : {"inf", "nan", "1,-inf", "infinity,2", "NAN"}) {
    const auto r = ParseDoubleList(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << text;
  }
  const auto big = ParseDoubleList("1e300, 0.5");
  ASSERT_TRUE(big.ok());
  EXPECT_DOUBLE_EQ(big.value()[0], 1e300);
}

TEST(ParseListsTest, Int64List) {
  const auto r = ParseInt64List(" 1, 20 ,,-3,9000000000");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), (std::vector<int64_t>{1, 20, -3, 9000000000}));
  EXPECT_TRUE(ParseInt64List("").ok());
  EXPECT_TRUE(ParseInt64List(" , ").value().empty());
}

TEST(ParseListsTest, Int64ListRejectsAnythingButWholeIntegers) {
  // Whole entries only: no suffix, exponent, fraction, base prefix or
  // out-of-range value is truncated into an integer.
  for (const char* text : {"1x", "2e3", "1,2e3", "1.5", "0x10", "x",
                           "99999999999999999999", "inf"}) {
    const auto r = ParseInt64List(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(ParseListsTest, StringList) {
  auto v = ParseStringList(" a ,b,, c ");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[2], "c");
}

TEST(ThreadsFlagTest, ParsesAndSizesGlobalPool) {
  FlagParser parser("test");
  int64_t threads;
  AddThreadsFlag(parser, &threads);
  auto argv = Argv({"prog", "--threads=2"});
  ASSERT_TRUE(
      parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(threads, 2);
  ASSERT_TRUE(ApplyThreadsFlag(threads).ok());
  EXPECT_EQ(ThreadPool::Global().num_threads(), 2);
  EXPECT_FALSE(ApplyThreadsFlag(-1).ok());
  // Restore the automatic default for the rest of the test binary.
  ASSERT_TRUE(ApplyThreadsFlag(0).ok());
  EXPECT_EQ(ThreadPool::Global().num_threads(),
            ThreadPool::DefaultThreadCount());
}

}  // namespace
}  // namespace desalign::common
