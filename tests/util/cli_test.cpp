#include "util/cli.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string_view>
#include <vector>

namespace imc {
namespace {

ArgParser parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, EqualsForm) {
  const auto args = parse({"prog", "--k=25", "--name=facebook"});
  EXPECT_EQ(args.get_int("k", 0), 25);
  EXPECT_EQ(args.get_string("name", ""), "facebook");
}

TEST(ArgParser, SpaceForm) {
  const auto args = parse({"prog", "--k", "25", "--scale", "0.5"});
  EXPECT_EQ(args.get_int("k", 0), 25);
  EXPECT_DOUBLE_EQ(args.get_double("scale", 1.0), 0.5);
}

TEST(ArgParser, BooleanFlags) {
  const auto args = parse({"prog", "--verbose", "--quiet=false"});
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("quiet", true));
  EXPECT_TRUE(args.get_bool("absent", true));
  EXPECT_FALSE(args.get_bool("absent", false));
}

TEST(ArgParser, Positional) {
  const auto args = parse({"prog", "input.txt", "--k=3", "output.txt"});
  ASSERT_EQ(args.positional().size(), 2U);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.positional()[1], "output.txt");
  EXPECT_EQ(args.program(), "prog");
}

TEST(ArgParser, HasAndFallbacks) {
  const auto args = parse({"prog", "--present=1"});
  EXPECT_TRUE(args.has("present"));
  EXPECT_FALSE(args.has("absent"));
  EXPECT_EQ(args.get_int("absent", -7), -7);
  EXPECT_EQ(args.get_string("absent", "dflt"), "dflt");
}

TEST(ArgParser, FlagFollowedByOption) {
  const auto args = parse({"prog", "--flag", "--k=2"});
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get_int("k", 0), 2);
}

TEST(ArgParser, FirstUnknownNamesAnOptionOutsideTheKnownSet) {
  const auto args =
      parse({"prog", "solve", "--k=3", "--trust-pool", "--scale", "0.5"});
  const std::vector<std::string_view> known = {"k", "scale"};
  EXPECT_EQ(args.first_unknown(known), "trust-pool");
  const std::vector<std::string_view> all = {"k", "scale", "trust-pool"};
  EXPECT_EQ(args.first_unknown(all), std::nullopt);
  // Positionals are not options.
  EXPECT_EQ(parse({"prog", "solve"}).first_unknown({}), std::nullopt);
}

TEST(EnvHelpers, ReadAndFallback) {
  ::setenv("IMC_TEST_ENV_INT", "42", 1);
  ::setenv("IMC_TEST_ENV_DOUBLE", "2.5", 1);
  EXPECT_EQ(env_int("IMC_TEST_ENV_INT", 0), 42);
  EXPECT_DOUBLE_EQ(env_double("IMC_TEST_ENV_DOUBLE", 0.0), 2.5);
  EXPECT_EQ(env_int("IMC_TEST_ENV_MISSING_ZZZ", 9), 9);
  EXPECT_FALSE(env_string("IMC_TEST_ENV_MISSING_ZZZ").has_value());
  ::unsetenv("IMC_TEST_ENV_INT");
  ::unsetenv("IMC_TEST_ENV_DOUBLE");
}

TEST(EnvHelpers, EmptyTreatedAsUnset) {
  ::setenv("IMC_TEST_ENV_EMPTY", "", 1);
  EXPECT_EQ(env_int("IMC_TEST_ENV_EMPTY", 3), 3);
  ::unsetenv("IMC_TEST_ENV_EMPTY");
}

}  // namespace
}  // namespace imc
