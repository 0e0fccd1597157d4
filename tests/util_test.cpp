#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/table.hpp"

namespace mcs::util {
namespace {

TEST(TextTable, RendersHeaderSeparatorAndRows) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1.25"});
  t.add_row({"b", "-3"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("|----"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Numeric cells right-align: "-3" should be padded on the left.
  EXPECT_NE(out.find(" -3 |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(-1.0, 0), "-1");
  EXPECT_EQ(TextTable::sci(0.000125, 2), "1.25e-04");
}

TEST(CsvEscape, QuotesOnlyCellsThatNeedIt) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape(""), "");
  EXPECT_EQ(csv_escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(csv_escape("quote\"inside"), "\"quote\"\"inside\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Args, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=1.5", "--beta=2",
                        "--flag", "positional", "--gamma"};
  Args args(6, argv);
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 1.5);
  EXPECT_EQ(args.get_int("beta", 0), 2);
  EXPECT_TRUE(args.get_flag("flag"));
  EXPECT_TRUE(args.get_flag("gamma"));
  EXPECT_FALSE(args.get_flag("absent"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(Args, DefaultsAndErrors) {
  const char* argv[] = {"prog", "--n=abc"};
  Args args(2, argv);
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("missing", 42), 42);
  EXPECT_THROW((void)args.get_int("n", 0), ConfigError);
}

TEST(Args, OutOfRangeIntegersNameTheFlag) {
  const char* argv[] = {"prog", "--threads=4294967298",
                        "--replications=-4294967295", "--big=1e3",
                        "--huge=99999999999999999999"};
  Args args(5, argv);
  const auto message_of = [&](const char* name) {
    try {
      (void)args.get_int(name, 0);
    } catch (const ConfigError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message_of("threads").rfind("--threads: ", 0), 0u);
  EXPECT_NE(message_of("threads").find("out of range"), std::string::npos);
  EXPECT_NE(message_of("replications").find("out of range"),
            std::string::npos);
  EXPECT_NE(message_of("big").find("expected an integer"), std::string::npos);
  EXPECT_NE(message_of("huge").find("out of range"), std::string::npos);
  // The field's type sets the range: 2^32 + 2 fits a 64-bit field.
  EXPECT_EQ(args.get_int<std::int64_t>("threads", 0), 4294967298LL);
}

TEST(ParseInt, RangeIsInclusiveAndNegativesMissUnsignedFields) {
  EXPECT_EQ(parse_int("-3", -3, 3, "x"), -3);
  EXPECT_EQ(parse_int("3", -3, 3, "x"), 3);
  EXPECT_THROW((void)parse_int("4", -3, 3, "x"), ConfigError);
  EXPECT_THROW((void)parse_int<std::size_t>("-1", "x"), ConfigError);
  EXPECT_THROW((void)parse_int<int>("", "x"), ConfigError);
  EXPECT_THROW((void)parse_double("1.5x", "x"), ConfigError);
}

TEST(Args, UnknownDetection) {
  const char* argv[] = {"prog", "--known=1", "--typo=2"};
  Args args(3, argv);
  const auto unknown = args.unknown({"known"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(Args, RequireKnownAcceptsKnownOptions) {
  const char* argv[] = {"prog", "--csv=out.csv", "--quiet", "positional"};
  Args args(4, argv);
  EXPECT_NO_THROW(args.require_known({"csv", "quiet", "json"}));
}

TEST(Args, RequireKnownThrowsWithSuggestion) {
  // Regression: `--find-saturaton` used to be silently ignored, running a
  // full sweep with no saturation search and no diagnostic.
  const char* argv[] = {"prog", "--find-saturaton"};
  Args args(2, argv);
  try {
    args.require_known({"find-saturation", "find-knee", "csv"});
    FAIL() << "require_known accepted a typo'd option";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("find-saturaton"), std::string::npos) << what;
    EXPECT_NE(what.find("find-saturation"), std::string::npos) << what;
  }
}

TEST(Args, RequireKnownNamesEveryUnknownOption) {
  const char* argv[] = {"prog", "--bogus1=1", "--bogus2"};
  Args args(3, argv);
  try {
    args.require_known({"csv"});
    FAIL() << "require_known accepted unknown options";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus1"), std::string::npos) << what;
    EXPECT_NE(what.find("bogus2"), std::string::npos) << what;
  }
}

TEST(WriteFile, ThrowsOnFailedStreamInsteadOfSilentTruncation) {
  const auto emit = [](std::ostream& out) {
    for (int i = 0; i < 1000; ++i) out << "xxxxxxxxxxxxxxxx\n";
  };
  const std::string path = ::testing::TempDir() + "mcs_write_file.txt";
  write_file(path, [](std::ostream& out) { out << "a,b\n"; });
  EXPECT_EQ(read_file(path), "a,b\n");
  std::remove(path.c_str());

  EXPECT_THROW(write_file("/nonexistent_dir_xyz/file.csv", emit),
               ConfigError);
  // /dev/full accepts the open but fails every flush with ENOSPC — the
  // exact disk-full scenario that used to truncate silently and exit 0.
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "/dev/full not available on this platform";
  EXPECT_THROW(write_file("/dev/full", emit), ConfigError);
}

TEST(Sha256, MatchesFipsKnownVectors) {
  EXPECT_EQ(
      sha256_hex(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      sha256_hex("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, StreamingEqualsOneShot) {
  const std::string message =
      "the quick brown fox jumps over the lazy dog, repeatedly, until the "
      "update spans multiple 64-byte blocks and a ragged tail";
  Sha256 chunked;
  for (std::size_t i = 0; i < message.size(); i += 7)
    chunked.update(message.substr(i, 7));
  EXPECT_EQ(chunked.hex_digest(), sha256_hex(message));
}

TEST(AtomicFile, WriteReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "mcs_atomic_test.txt";
  const std::string content = "line one\nline two\nno trailing newline";
  write_file_atomic(path, content);
  const auto back = read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, content);
  // Overwrite goes through the same temp-then-rename path.
  write_file_atomic(path, "v2");
  EXPECT_EQ(read_file(path).value_or(""), "v2");
  std::remove(path.c_str());
}

TEST(AtomicFile, ReadMissingFileIsNulloptAndWriteToBadDirThrows) {
  EXPECT_FALSE(read_file("/nonexistent_dir_xyz/missing.txt").has_value());
  EXPECT_THROW(write_file_atomic("/nonexistent_dir_xyz/out.txt", "x"),
               ConfigError);
}

}  // namespace
}  // namespace mcs::util
