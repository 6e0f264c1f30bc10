// Unit tests for the common utility module.
#include <gtest/gtest.h>

#include <sstream>

#include "common/cli.h"
#include "common/md5.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"
#include "common/units.h"

namespace nws {
namespace {

TEST(Units, Literals) {
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(1_MiB, 1024u * 1024u);
  EXPECT_EQ(5_MiB, 5u * 1024u * 1024u);
  EXPECT_EQ(1_GiB, 1024u * 1024u * 1024u);
  EXPECT_EQ(40_TiB, 40ull << 40);
}

TEST(Units, BandwidthConversion) {
  EXPECT_DOUBLE_EQ(to_gib_per_sec(gib_per_sec(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(gib_per_sec(1.0), 1073741824.0);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(5_MiB), "5 MiB");
  EXPECT_EQ(format_bytes(1536), "1.50 KiB");
  EXPECT_EQ(format_bytes(0), "0 B");
}

TEST(Units, FormatBandwidth) { EXPECT_EQ(format_bandwidth(gib_per_sec(2.5)), "2.50 GiB/s"); }

TEST(Units, StripeSplitMatchesAByteWalk) {
  // Reference: deal every byte of the range to its chunk's member.
  const auto walk = [](Bytes offset, Bytes len, Bytes chunk, std::size_t width) {
    std::vector<Bytes> per_member(width, 0);
    for (Bytes b = offset; b < offset + len; ++b) ++per_member[(b / chunk) % width];
    return per_member;
  };
  struct Case {
    Bytes offset, len, chunk;
    std::size_t width;
  };
  const Case cases[] = {
      {3, 4, 16, 4},    // inside one chunk
      {0, 16, 16, 4},   // exactly one chunk
      {10, 20, 16, 4},  // straddles two chunks
      {5, 40, 8, 3},    // wraps the width
      {7, 300, 5, 6},   // wraps the width many times, ragged ends
      {0, 100, 7, 1},   // width 1 takes everything
      {33, 0, 8, 3},    // zero length touches no member
  };
  for (const Case& c : cases) {
    EXPECT_EQ(stripe_split(c.offset, c.len, c.chunk, c.width), walk(c.offset, c.len, c.chunk, c.width))
        << "offset " << c.offset << " len " << c.len << " chunk " << c.chunk << " width " << c.width;
  }
  EXPECT_EQ(stripe_split(10, 20, 16, 4), (std::vector<Bytes>{6, 14, 0, 0}));
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), Errc::ok);
  EXPECT_EQ(s.to_string(), "ok");
  EXPECT_NO_THROW(s.expect_ok("test"));
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status s = Status::error(Errc::not_found, "key 'x' absent");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), Errc::not_found);
  EXPECT_EQ(s.to_string(), "not_found: key 'x' absent");
  EXPECT_THROW(s.expect_ok("lookup"), std::runtime_error);
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::error(Errc::not_found, "nope"));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Errc::not_found);
  EXPECT_EQ(r.value_or(-1), -1);
  EXPECT_THROW((void)r.value(), std::runtime_error);
}

TEST(Result, OkStatusWithoutValueIsALogicError) {
  EXPECT_THROW(Result<int> r{Status::ok()}, std::logic_error);
}

// RFC 1321 appendix A.5 test suite.
TEST(Md5, Rfc1321Vectors) {
  EXPECT_EQ(md5("").hex(), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(md5("a").hex(), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(md5("abc").hex(), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(md5("message digest").hex(), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(md5("abcdefghijklmnopqrstuvwxyz").hex(), "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(md5("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789").hex(),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(md5("12345678901234567890123456789012345678901234567890123456789012345678901234567890").hex(),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, IncrementalMatchesOneShot) {
  Md5 ctx;
  ctx.update("mess");
  ctx.update("age ");
  ctx.update("digest");
  EXPECT_EQ(ctx.finish().hex(), md5("message digest").hex());
}

TEST(Md5, BlockBoundarySizes) {
  // Exercise lengths around the 64-byte block and 56-byte padding boundary.
  for (const std::size_t n : {55u, 56u, 57u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    const std::string s(n, 'x');
    Md5 ctx;
    for (const char c : s) ctx.update(&c, 1);
    EXPECT_EQ(ctx.finish().hex(), md5(s).hex()) << "length " << n;
  }
}

TEST(Md5, DigestHalvesRoundTrip) {
  const Md5Digest d = md5("'class': 'od', 'date': '20201224'");
  // hi64/lo64 must be consistent with the hex rendering.
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx", static_cast<unsigned long long>(d.hi64()),
                static_cast<unsigned long long>(d.lo64()));
  EXPECT_EQ(d.hex(), buf);
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    EXPECT_LT(rng.next_below(10), 10u);
  }
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng base(1);
  Rng a = base.fork(0);
  Rng b = base.fork(1);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, LognormalJitterHasUnitMedian) {
  Rng rng(99);
  int above = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    if (rng.lognormal_jitter(0.3) > 1.0) ++above;
  }
  EXPECT_NEAR(static_cast<double>(above) / n, 0.5, 0.05);
}

TEST(Stats, BasicMoments) {
  Summary s({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
}

TEST(Stats, Percentiles) {
  Summary s({10.0, 20.0, 30.0, 40.0, 50.0});
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 50.0);
  EXPECT_DOUBLE_EQ(s.median(), 30.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 20.0);
  EXPECT_DOUBLE_EQ(s.percentile(12.5), 15.0);
}

TEST(Stats, AddInvalidatesCache) {
  Summary s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
}

TEST(Stats, SealedAccessorsMatchUnsealed) {
  // Regression: the order-statistic cache used to be (re)built inside const
  // accessors, a data race once a Summary was shared across run_pool
  // workers.  Now const readers never mutate; seal() builds the cache
  // explicitly and must not change any reported value.
  Summary s({30.0, 10.0, 50.0, 20.0, 40.0});
  const double unsealed_p25 = s.percentile(25);
  const double unsealed_min = s.min();
  const double unsealed_max = s.max();
  s.seal();
  EXPECT_DOUBLE_EQ(s.percentile(25), unsealed_p25);
  EXPECT_DOUBLE_EQ(s.min(), unsealed_min);
  EXPECT_DOUBLE_EQ(s.max(), unsealed_max);
  s.add(5.0);  // invalidates the cache; values must track the new sample
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  s.seal();
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 50.0);
}

TEST(Stats, EmptyThrows) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW((void)s.mean(), std::logic_error);
  EXPECT_THROW((void)s.min(), std::logic_error);
  EXPECT_THROW((void)s.percentile(50), std::logic_error);
}

TEST(Table, AlignedPrint) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"k", "v"});
  t.add_row({"with,comma", "with\"quote"});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "k,v\n\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_EQ(t.row(0).size(), 3u);
  EXPECT_EQ(t.row(0)[2], "");
}

TEST(Strf, FormatsLikePrintf) { EXPECT_EQ(strf("%.2f GiB/s (%d)", 2.5, 7), "2.50 GiB/s (7)"); }

TEST(Cli, ParsesFlagsInAllForms) {
  Cli cli;
  cli.add_flag("servers", "1", "server nodes");
  cli.add_flag("size", "1.5", "size");
  cli.add_flag("verbose", "false", "verbosity");
  cli.add_flag("list", "1,2,4", "a list");
  const char* argv[] = {"prog", "--servers=4", "--size", "2.5", "--verbose", "--list=8,16"};
  ASSERT_TRUE(cli.parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(cli.get_int("servers"), 4);
  EXPECT_DOUBLE_EQ(cli.get_double("size"), 2.5);
  EXPECT_TRUE(cli.get_bool("verbose"));
  EXPECT_EQ(cli.get_int_list("list"), (std::vector<std::int64_t>{8, 16}));
}

TEST(Cli, NoPrefixDisablesBoolean) {
  Cli cli;
  cli.add_flag("emulate-issues", "true", "fault injection");
  const char* argv[] = {"prog", "--no-emulate-issues"};
  ASSERT_TRUE(cli.parse(2, const_cast<char**>(argv)));
  EXPECT_FALSE(cli.get_bool("emulate-issues"));
}

TEST(Cli, UnknownFlagThrows) {
  Cli cli;
  cli.add_flag("x", "1", "");
  const char* argv[] = {"prog", "--y=2"};
  EXPECT_THROW(cli.parse(2, const_cast<char**>(argv)), std::invalid_argument);
}

TEST(Cli, DefaultsApply) {
  Cli cli;
  cli.add_flag("reps", "9", "repetitions");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(cli.get_int("reps"), 9);
}

}  // namespace
}  // namespace nws
