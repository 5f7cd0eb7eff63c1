#include "hash/classic_hashes.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>
#include <vector>

namespace caesar::hash {
namespace {

using HashFn = std::uint32_t (*)(std::string_view) noexcept;

struct NamedHash {
  const char* name;
  HashFn fn;
};

// Without this, gtest prints the parameter as raw bytes, i.e. the two
// pointers' load addresses, and the discovered test names change with
// every build and run.
void PrintTo(const NamedHash& h, std::ostream* os) { *os << h.name; }

class ClassicHashTest : public ::testing::TestWithParam<NamedHash> {};

TEST_P(ClassicHashTest, IsDeterministic) {
  const auto fn = GetParam().fn;
  EXPECT_EQ(fn("flow-tuple"), fn("flow-tuple"));
}

TEST_P(ClassicHashTest, DistinguishesNearbyInputs) {
  const auto fn = GetParam().fn;
  EXPECT_NE(fn("10.0.0.1:80"), fn("10.0.0.2:80"));
  EXPECT_NE(fn("a"), fn("b"));
  EXPECT_NE(fn("ab"), fn("ba"));
}

TEST_P(ClassicHashTest, SpreadsOverBuckets) {
  const auto fn = GetParam().fn;
  // Prime bucket count: the multiplicative mixers (djb2, sdbm) have poor
  // low-bit diffusion, so power-of-two bucketing is unfairly adversarial
  // for structured decimal keys.
  constexpr int kBuckets = 61;
  constexpr int kKeys = 61000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kKeys; ++i)
    ++counts[fn(std::to_string(i) + ".key") %
             static_cast<unsigned>(kBuckets)];
  // Expected 1000/bucket; tolerate a generous band since these are
  // lightweight non-cryptographic mixers.
  for (int c : counts) {
    EXPECT_GT(c, 400);
    EXPECT_LT(c, 1800);
  }
}

TEST_P(ClassicHashTest, FewCollisionsOnDenseKeySet) {
  const auto fn = GetParam().fn;
  std::set<std::uint32_t> seen;
  constexpr int kKeys = 20000;
  for (int i = 0; i < kKeys; ++i) {
    // Built via append: GCC 12's -O3 -Wrestrict misfires on the
    // char* + string&& overload.
    std::string key = "key-";
    key += std::to_string(i);
    seen.insert(fn(key));
  }
  // Birthday expectation at 2^32 is ~0.05 collisions for 20k keys; the
  // weak 32-bit mixers cluster more, so only a loose cap is asserted.
  EXPECT_GE(seen.size(), static_cast<std::size_t>(kKeys - 200));
}

INSTANTIATE_TEST_SUITE_P(
    AllClassicHashes, ClassicHashTest,
    ::testing::Values(NamedHash{"ap", &ap_hash}, NamedHash{"bkdr", &bkdr_hash},
                      NamedHash{"djb2", &djb2_hash},
                      NamedHash{"fnv1a", &fnv1a_hash},
                      NamedHash{"sdbm", &sdbm_hash},
                      NamedHash{"js", &js_hash}),
    [](const ::testing::TestParamInfo<NamedHash>& param_info) {
      return param_info.param.name;
    });

TEST(Fnv1a, KnownVectors) {
  // Canonical FNV-1a 32-bit test vectors.
  EXPECT_EQ(fnv1a_hash(""), 0x811C9DC5u);
  EXPECT_EQ(fnv1a_hash("a"), 0xE40C292Cu);
  EXPECT_EQ(fnv1a_hash("foobar"), 0xBF9CF968u);
}

TEST(Djb2, KnownRecurrence) {
  // djb2("a") = 5381*33 + 'a'.
  EXPECT_EQ(djb2_hash("a"), 5381u * 33u + 'a');
}

TEST(Bkdr, KnownRecurrence) {
  EXPECT_EQ(bkdr_hash("ab"), ('a' * 131u) + 'b');
}

TEST(ApHash, EmptyIsSeed) { EXPECT_EQ(ap_hash(""), 0xAAAAAAAAu); }

}  // namespace
}  // namespace caesar::hash
