// The answer serialisers' number format: AppendDoubleG6 (std::to_chars,
// general, precision 6) must render every double exactly as
// printf("%.6g") does, since the JSON and CSV bytes of every answer were
// defined by that format before the writers moved to to_chars.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <string>

#include "common/string_util.h"

namespace scube {
namespace {

std::string Printf6g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string ToChars6g(double v) {
  std::string out;
  AppendDoubleG6(v, &out);
  return out;
}

TEST(NumberFormatTest, SpecialValuesMatchPrintf) {
  const double cases[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      1.0,
      -1.0,
      0.1,
      1.0 / 3.0,
  };
  for (double v : cases) {
    EXPECT_EQ(ToChars6g(v), Printf6g(v)) << "bits " << std::hex
                                         << std::bit_cast<uint64_t>(v);
  }
}

TEST(NumberFormatTest, SixthDigitRoundingEdgesMatchPrintf) {
  // Ties at the sixth significant digit, the switch between fixed and
  // exponent notation (exponent -5 and 6), and their neighbours.
  const double cases[] = {
      999999.5,  123456.5,  1e-5,      0.0001,    999999.4,  999999.6,
      123455.5,  123457.5,  1e6,       1e5,       999995.0,  0.000099999,
      9.999995,  0.5,       2.5e-5,    1.0000005, 100000.5,  99999.95,
      1e-4,      9.9999949e-5,
  };
  for (double v : cases) {
    for (double x : {v, -v, std::nextafter(v, 0.0), std::nextafter(v, 1e300)}) {
      EXPECT_EQ(ToChars6g(x), Printf6g(x)) << "bits " << std::hex
                                           << std::bit_cast<uint64_t>(x);
    }
  }
}

TEST(NumberFormatTest, RandomBitPatternsMatchPrintf) {
  // Uniform bit patterns cover every exponent (denormals, inf and NaN
  // payloads included); the uniform doubles cover the index range [0, 1]
  // that answers mostly carry.
  std::mt19937_64 rng(20261017);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  constexpr int kSamples = 200000;
  int mismatches = 0;
  for (int i = 0; i < kSamples; ++i) {
    const double bits = std::bit_cast<double>(rng());
    const double index = unit(rng);
    for (double v : {bits, index}) {
      if (ToChars6g(v) != Printf6g(v)) {
        ADD_FAILURE() << "bits " << std::hex << std::bit_cast<uint64_t>(v)
                      << ": to_chars " << ToChars6g(v) << " printf "
                      << Printf6g(v);
        if (++mismatches >= 10) return;
      }
    }
  }
}

}  // namespace
}  // namespace scube
