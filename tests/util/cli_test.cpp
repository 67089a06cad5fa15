#include "util/cli.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace vexsim {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, SpaceSeparatedValue) {
  const Cli cli = make({"--budget", "1000"});
  EXPECT_EQ(cli.get_int("budget", 0), 1000);
}

TEST(Cli, EqualsValue) {
  const Cli cli = make({"--scale=0.5"});
  EXPECT_DOUBLE_EQ(cli.get_double("scale", 1.0), 0.5);
}

TEST(Cli, BooleanFlag) {
  const Cli cli = make({"--paper"});
  EXPECT_TRUE(cli.get_bool("paper", false));
  EXPECT_TRUE(cli.has("paper"));
  EXPECT_FALSE(cli.has("quick"));
}

TEST(Cli, DefaultsWhenAbsent) {
  const Cli cli = make({});
  EXPECT_EQ(cli.get_int("budget", 42), 42);
  EXPECT_EQ(cli.get("name", "x"), "x");
  EXPECT_FALSE(cli.get_bool("flag", false));
}

TEST(Cli, Positional) {
  const Cli cli = make({"llhh", "--seed", "7", "mmhh"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "llhh");
  EXPECT_EQ(cli.positional()[1], "mmhh");
  EXPECT_EQ(cli.get_int("seed", 0), 7);
}

TEST(Cli, HexIntegers) {
  const Cli cli = make({"--base=0x1000"});
  EXPECT_EQ(cli.get_int("base", 0), 0x1000);
}

TEST(Cli, NumbersMustParseWhole) {
  EXPECT_EQ(make({"--n", "0x10"}).get_int("n", 0), 16);
  EXPECT_EQ(make({"--n", "-7"}).get_int("n", 0), -7);
  EXPECT_EQ(make({"--n", "9223372036854775807"}).get_int("n", 0),
            9223372036854775807);
  EXPECT_DOUBLE_EQ(make({"--x", "2e5"}).get_double("x", 0), 2e5);
  EXPECT_DOUBLE_EQ(make({"--x", "-0.25"}).get_double("x", 0), -0.25);
  // Trailing characters, empty values, bare flags and overflow all throw
  // rather than silently reading a prefix (or 0, or a clamped value).
  EXPECT_THROW((void)make({"--n", "2e5"}).get_int("n", 0), CheckError);
  EXPECT_THROW((void)make({"--n", "12abc"}).get_int("n", 0), CheckError);
  EXPECT_THROW((void)make({"--n="}).get_int("n", 0), CheckError);
  EXPECT_THROW((void)make({"--n"}).get_int("n", 0), CheckError);
  EXPECT_THROW((void)make({"--n", "99999999999999999999"}).get_int("n", 0),
               CheckError);
  EXPECT_THROW((void)make({"--n", "-99999999999999999999"}).get_int("n", 0),
               CheckError);
  EXPECT_THROW((void)make({"--x", "0.5x"}).get_double("x", 0), CheckError);
  EXPECT_THROW((void)make({"--x="}).get_double("x", 0), CheckError);
  EXPECT_THROW((void)make({"--x", "1e999"}).get_double("x", 0), CheckError);
}

TEST(Cli, JobsParsesPositiveValues) {
  EXPECT_EQ(make({"--jobs", "8"}).jobs(), 8);
  EXPECT_EQ(make({"--jobs=2"}).jobs(), 2);
}

TEST(Cli, JobsDefaultsWhenAbsent) {
  EXPECT_EQ(make({}).jobs(), 1);
  EXPECT_EQ(make({}).jobs(4), 4);
}

TEST(Cli, JobsRejectsZeroAndNegative) {
  EXPECT_THROW((void)make({"--jobs", "0"}).jobs(), CheckError);
  EXPECT_THROW((void)make({"--jobs", "-3"}).jobs(), CheckError);
}

TEST(Cli, JobsRejectsGarbage) {
  EXPECT_THROW((void)make({"--jobs", "many"}).jobs(), CheckError);
  EXPECT_THROW((void)make({"--jobs", "4x"}).jobs(), CheckError);
  EXPECT_THROW((void)make({"--jobs"}).jobs(), CheckError);  // bare flag -> "true"
}

TEST(Cli, DuplicateOptionIsHardError) {
  // Last-wins would let `--seed 1 --seed 2` (or a typo'd flag that lands on
  // an already-used name) silently mask a sweep misconfiguration.
  EXPECT_THROW(make({"--seed", "1", "--seed", "2"}), CheckError);
  EXPECT_THROW(make({"--flag=a", "--flag=b"}), CheckError);
  EXPECT_THROW(make({"--quick", "--quick"}), CheckError);
  EXPECT_THROW(make({"--jobs=4", "--jobs", "8"}), CheckError);
  try {
    make({"--seed=1", "--seed=2"});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate option --seed"), std::string::npos) << what;
    EXPECT_NE(what.find("'1'"), std::string::npos) << what;
    EXPECT_NE(what.find("'2'"), std::string::npos) << what;
  }
  // Distinct options are unaffected.
  const Cli ok = make({"--seed", "1", "--budget", "2"});
  EXPECT_EQ(ok.get_int("seed", 0), 1);
  EXPECT_EQ(ok.get_int("budget", 0), 2);
}

TEST(Cli, JobsRejectsOverflow) {
  EXPECT_THROW((void)make({"--jobs", "2147483648"}).jobs(), CheckError);
  EXPECT_THROW((void)make({"--jobs", "4294967297"}).jobs(), CheckError);
  EXPECT_EQ(make({"--jobs", "2147483647"}).jobs(), 2147483647);
}

}  // namespace
}  // namespace vexsim
