// Tests for the probabilistic structures: Bloom filters (the §3.4.5 tablet
// skipping extension) and HyperLogLog (the §4.1.2 distinct-client sketches).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "util/bloom.h"
#include "util/coding.h"
#include "util/hyperloglog.h"
#include "util/random.h"

namespace lt {
namespace {

TEST(BloomTest, NoFalseNegatives) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 5000; i++) builder.Add("key-" + std::to_string(i));
  BloomFilter filter;
  ASSERT_TRUE(BloomFilter::Parse(builder.Finish(), &filter).ok());
  for (int i = 0; i < 5000; i++) {
    EXPECT_TRUE(filter.MayContain("key-" + std::to_string(i))) << i;
  }
}

TEST(BloomTest, FalsePositiveRateNearOnePercentAtTenBits) {
  // The paper's proposed 10 bits/row should eliminate ~99% of non-matching
  // tablets (§3.4.5).
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 20000; i++) builder.Add("present-" + std::to_string(i));
  BloomFilter filter;
  ASSERT_TRUE(BloomFilter::Parse(builder.Finish(), &filter).ok());
  int fp = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; i++) {
    if (filter.MayContain("absent-" + std::to_string(i))) fp++;
  }
  double rate = static_cast<double>(fp) / trials;
  EXPECT_LT(rate, 0.025);
  EXPECT_GT(rate, 0.0005);
}

TEST(BloomTest, SizeIsTenBitsPerKey) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 8000; i++) builder.Add("k" + std::to_string(i));
  BloomFilter filter;
  ASSERT_TRUE(BloomFilter::Parse(builder.Finish(), &filter).ok());
  EXPECT_NEAR(filter.SizeBytes(), 8000 * 10 / 8, 64);
}

TEST(BloomTest, EmptyFilterMatchesNothing) {
  BloomFilterBuilder builder(10);
  BloomFilter filter;
  ASSERT_TRUE(BloomFilter::Parse(builder.Finish(), &filter).ok());
  EXPECT_FALSE(filter.MayContain("anything"));
}

TEST(BloomTest, ParseRejectsGarbage) {
  BloomFilter filter;
  EXPECT_FALSE(BloomFilter::Parse("", &filter).ok());
  EXPECT_FALSE(BloomFilter::Parse("\xff\xff\xff", &filter).ok());
}

TEST(BloomTest, DifferentBitsPerKeyTradeoff) {
  auto fp_rate = [](int bits_per_key) {
    BloomFilterBuilder builder(bits_per_key);
    for (int i = 0; i < 5000; i++) builder.Add("p" + std::to_string(i));
    BloomFilter filter;
    EXPECT_TRUE(BloomFilter::Parse(builder.Finish(), &filter).ok());
    int fp = 0;
    for (int i = 0; i < 5000; i++) {
      if (filter.MayContain("a" + std::to_string(i))) fp++;
    }
    return static_cast<double>(fp) / 5000;
  };
  EXPECT_GT(fp_rate(4), fp_rate(16));
}

// The filter a builder that stores every key's hash, repeats included,
// would serialize — the format Finish writes, spelled out independently.
std::string ReferenceFilter(const std::vector<std::string>& keys,
                            int bits_per_key) {
  int k = std::clamp(static_cast<int>(bits_per_key * 0.69), 1, 30);
  size_t bits = std::max<size_t>(keys.size() * bits_per_key, 64);
  const size_t bytes = (bits + 7) / 8;
  bits = bytes * 8;
  std::string array(bytes, '\0');
  for (const std::string& key : keys) {
    const uint64_t h = BloomHash(key);
    const uint64_t delta = (h >> 32) | (h << 32);
    for (int i = 0; i < k; i++) {
      const uint64_t bit = (h + static_cast<uint64_t>(i) * delta) % bits;
      array[bit / 8] |= static_cast<char>(1 << (bit % 8));
    }
  }
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(k));
  PutLengthPrefixedSlice(&out, array);
  return out;
}

TEST(BloomTest, CountedRepeatsSerializeLikeStoredRepeats) {
  // Sorted rows' key prefixes come in long runs: a few networks, each over
  // many devices, each over many timestamps. AddRepeat for a prefix equal
  // to the previous row's must produce the same bytes as adding it again.
  for (int bits_per_key : {1, 10, 16}) {
    BloomFilterBuilder builder(bits_per_key);
    std::vector<std::string> all;
    std::string prev_net, prev_dev;
    for (int net = 0; net < 3; net++) {
      for (int dev = 0; dev < 40; dev++) {
        for (int ts = 0; ts < 25; ts++) {
          const std::string n = "n" + std::to_string(net);
          const std::string d = n + "/d" + std::to_string(dev);
          const std::string key = d + "/" + std::to_string(ts);
          if (n == prev_net) {
            builder.AddRepeat();
          } else {
            builder.Add(n);
          }
          if (d == prev_dev) {
            builder.AddRepeat();
          } else {
            builder.Add(d);
          }
          builder.Add(key);
          all.insert(all.end(), {n, d, key});
          prev_net = n;
          prev_dev = d;
        }
      }
    }
    EXPECT_EQ(builder.NumKeys(), all.size());
    EXPECT_EQ(builder.Finish(), ReferenceFilter(all, bits_per_key))
        << bits_per_key << " bits per key";
  }
  // Small and empty inputs (the 64-bit minimum filter).
  BloomFilterBuilder small(10);
  small.Add("a");
  small.AddRepeat();
  EXPECT_EQ(small.Finish(), ReferenceFilter({"a", "a"}, 10));
  EXPECT_EQ(BloomFilterBuilder(10).Finish(), ReferenceFilter({}, 10));
}

TEST(BloomTest, SteppedProbesMatchTheModuloFormula) {
  // BloomProbe steps each position mod bits and corrects for the 64-bit
  // wrap of h1 + i * h2; every position must equal the direct formula.
  // Random 64-bit hashes wrap within a few probes, so both arms run.
  Random rnd(20261020);
  size_t wraps = 0;
  for (int trial = 0; trial < 20000; trial++) {
    uint64_t bits;
    switch (trial % 4) {
      case 0: bits = 64 + rnd.Uniform(1 << 12); break;
      case 1: bits = 8 * (8 + rnd.Uniform(1 << 20)); break;
      case 2: bits = 1 + rnd.Uniform(uint64_t{1} << 40); break;
      default: bits = (uint64_t{1} << 63) - rnd.Uniform(1 << 20); break;
    }
    const uint64_t h = rnd.Next();
    const uint64_t h2 = (h >> 32) | (h << 32);
    const int k = 1 + static_cast<int>(rnd.Uniform(30));
    BloomProbe probe(h, bits, BloomWrap(bits));
    for (int i = 0; i < k; i++, probe.Next()) {
      const uint64_t x = h + static_cast<uint64_t>(i) * h2;
      if (i > 0 && x < h + static_cast<uint64_t>(i - 1) * h2) wraps++;
      ASSERT_EQ(probe.bit(), x % bits)
          << "h=" << h << " bits=" << bits << " probe " << i;
    }
  }
  EXPECT_GT(wraps, 10000u);
}

TEST(HllTest, SmallCardinalitiesNearExact) {
  HyperLogLog hll(12);
  for (int i = 0; i < 100; i++) hll.Add("client-" + std::to_string(i));
  EXPECT_NEAR(hll.Estimate(), 100, 5);
}

TEST(HllTest, LargeCardinalityWithinRelativeError) {
  HyperLogLog hll(12);  // ~1.6% standard error.
  const int n = 200000;
  for (int i = 0; i < n; i++) hll.Add("client-" + std::to_string(i));
  EXPECT_NEAR(hll.Estimate(), n, n * 0.05);
}

TEST(HllTest, DuplicatesDoNotInflate) {
  HyperLogLog hll(12);
  for (int round = 0; round < 10; round++) {
    for (int i = 0; i < 1000; i++) hll.Add("dup-" + std::to_string(i));
  }
  EXPECT_NEAR(hll.Estimate(), 1000, 60);
}

TEST(HllTest, MergeEqualsUnion) {
  HyperLogLog a(12), b(12), u(12);
  for (int i = 0; i < 5000; i++) {
    a.Add("x" + std::to_string(i));
    u.Add("x" + std::to_string(i));
  }
  for (int i = 2500; i < 7500; i++) {
    b.Add("x" + std::to_string(i));
    u.Add("x" + std::to_string(i));
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_DOUBLE_EQ(a.Estimate(), u.Estimate());
  EXPECT_NEAR(a.Estimate(), 7500, 7500 * 0.05);
}

TEST(HllTest, MergePrecisionMismatchFails) {
  HyperLogLog a(12), b(10);
  EXPECT_FALSE(a.Merge(b).ok());
}

TEST(HllTest, SerializeRoundTrip) {
  HyperLogLog hll(11);
  for (int i = 0; i < 3000; i++) hll.Add("s" + std::to_string(i));
  std::string blob = hll.Serialize();
  EXPECT_EQ(blob.size(), 1u + (1u << 11));
  HyperLogLog back(4);
  ASSERT_TRUE(HyperLogLog::Deserialize(blob, &back).ok());
  EXPECT_EQ(back.precision(), 11);
  EXPECT_DOUBLE_EQ(back.Estimate(), hll.Estimate());
}

TEST(HllTest, DeserializeRejectsCorruptBlobs) {
  HyperLogLog out(4);
  EXPECT_FALSE(HyperLogLog::Deserialize("", &out).ok());
  EXPECT_FALSE(HyperLogLog::Deserialize("\x0c short", &out).ok());
  std::string bad_precision(1 + 4096, '\0');
  bad_precision[0] = 99;
  EXPECT_FALSE(HyperLogLog::Deserialize(bad_precision, &out).ok());
}

TEST(HllTest, EmptySketchEstimatesZero) {
  HyperLogLog hll(12);
  EXPECT_NEAR(hll.Estimate(), 0, 1e-9);
}

TEST(HllTest, PrecisionClamped) {
  HyperLogLog low(1), high(30);
  EXPECT_EQ(low.precision(), 4);
  EXPECT_EQ(high.precision(), 16);
}

}  // namespace
}  // namespace lt
