#include "util/flags.h"

#include <gtest/gtest.h>

namespace remi {
namespace {

std::vector<char*> MakeArgv(std::vector<std::string>& storage) {
  std::vector<char*> argv;
  argv.push_back(nullptr);  // program name slot
  for (auto& s : storage) argv.push_back(s.data());
  return argv;
}

class FlagsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    flags_.DefineString("name", "default", "a string");
    flags_.DefineInt("count", 10, "an int");
    flags_.DefineDouble("rate", 0.5, "a double");
    flags_.DefineBool("verbose", false, "a bool");
  }
  Flags flags_;
};

TEST_F(FlagsTest, DefaultsApply) {
  std::vector<std::string> args;
  auto argv = MakeArgv(args);
  ASSERT_TRUE(flags_.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(flags_.GetString("name"), "default");
  EXPECT_EQ(flags_.GetInt("count"), 10);
  EXPECT_DOUBLE_EQ(flags_.GetDouble("rate"), 0.5);
  EXPECT_FALSE(flags_.GetBool("verbose"));
}

TEST_F(FlagsTest, EqualsSyntax) {
  std::vector<std::string> args{"--name=kb", "--count=42", "--rate=1.25"};
  auto argv = MakeArgv(args);
  ASSERT_TRUE(flags_.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(flags_.GetString("name"), "kb");
  EXPECT_EQ(flags_.GetInt("count"), 42);
  EXPECT_DOUBLE_EQ(flags_.GetDouble("rate"), 1.25);
}

TEST_F(FlagsTest, SpaceSyntax) {
  std::vector<std::string> args{"--count", "7"};
  auto argv = MakeArgv(args);
  ASSERT_TRUE(flags_.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(flags_.GetInt("count"), 7);
}

TEST_F(FlagsTest, BareBooleanAndNegation) {
  std::vector<std::string> args{"--verbose"};
  auto argv = MakeArgv(args);
  ASSERT_TRUE(flags_.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_TRUE(flags_.GetBool("verbose"));

  Flags flags2;
  flags2.DefineBool("verbose", true, "");
  std::vector<std::string> args2{"--no-verbose"};
  auto argv2 = MakeArgv(args2);
  ASSERT_TRUE(
      flags2.Parse(static_cast<int>(argv2.size()), argv2.data()).ok());
  EXPECT_FALSE(flags2.GetBool("verbose"));
}

TEST_F(FlagsTest, UnknownFlagFails) {
  std::vector<std::string> args{"--bogus=1"};
  auto argv = MakeArgv(args);
  EXPECT_TRUE(flags_.Parse(static_cast<int>(argv.size()), argv.data())
                  .IsInvalidArgument());
}

TEST_F(FlagsTest, MalformedIntFails) {
  std::vector<std::string> args{"--count=abc"};
  auto argv = MakeArgv(args);
  EXPECT_TRUE(flags_.Parse(static_cast<int>(argv.size()), argv.data())
                  .IsInvalidArgument());
}

TEST_F(FlagsTest, MalformedDoubleFails) {
  std::vector<std::string> args{"--rate=1.2.3"};
  auto argv = MakeArgv(args);
  EXPECT_TRUE(flags_.Parse(static_cast<int>(argv.size()), argv.data())
                  .IsInvalidArgument());
}

TEST_F(FlagsTest, MissingValueFails) {
  std::vector<std::string> args{"--count"};
  auto argv = MakeArgv(args);
  EXPECT_TRUE(flags_.Parse(static_cast<int>(argv.size()), argv.data())
                  .IsInvalidArgument());
}

TEST_F(FlagsTest, PositionalArgumentsCollected) {
  std::vector<std::string> args{"input.nt", "--count=3", "output.rkf"};
  auto argv = MakeArgv(args);
  ASSERT_TRUE(flags_.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  ASSERT_EQ(flags_.positional().size(), 2u);
  EXPECT_EQ(flags_.positional()[0], "input.nt");
  EXPECT_EQ(flags_.positional()[1], "output.rkf");
}

TEST_F(FlagsTest, CheckRangesRejectsTheFirstOutOfRangeValue) {
  std::vector<std::string> args{"--count", "-1", "--rate", "-0.5"};
  auto argv = MakeArgv(args);
  ASSERT_TRUE(flags_.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_TRUE(flags_.CheckRanges({{"count", -1, 0}}, {}).ok());
  const Status count = flags_.CheckRanges({{"count", 0, 65535}}, {"rate"});
  EXPECT_TRUE(count.IsInvalidArgument());
  EXPECT_EQ(count.message(), "--count must be in [0, 65535], got -1");
  const Status rate = flags_.CheckRanges({}, {"rate"});
  EXPECT_EQ(rate.message(), "--rate must be >= 0, got -0.5");
}

TEST_F(FlagsTest, HelpListsFlags) {
  const std::string help = flags_.Help();
  EXPECT_NE(help.find("--name"), std::string::npos);
  EXPECT_NE(help.find("--count"), std::string::npos);
}

}  // namespace
}  // namespace remi
