// Tests for the byte-level substrate: Slice, Status, coding, CRC32C,
// Random, SimClock, the Samples accumulator, LatencyHistogram, the metrics
// registry, and the structured logger.
#include <gtest/gtest.h>

#include <cmath>

#include "util/clock.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/histogram.h"
#include "util/logger.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/slice.h"
#include "util/status.h"

namespace lt {
namespace {

TEST(StatusTest, OkIsDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing.tab");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing.tab");
}

TEST(StatusTest, AllConstructorsMapToPredicates) {
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::NetworkError("x").IsNetworkError());
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err(Status::IOError("disk"));
  ASSERT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsIOError());
}

TEST(SliceTest, BasicOps) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
  EXPECT_TRUE(Slice("abc") == Slice("abc"));
  EXPECT_TRUE(Slice("abc") != Slice("abd"));
}

TEST(SliceTest, CompareIsMemcmpOrder) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  // Shorter strings sort before their extensions.
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
}

TEST(SliceTest, StartsWith) {
  EXPECT_TRUE(Slice("network/device").starts_with("network"));
  EXPECT_FALSE(Slice("net").starts_with("network"));
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xBEEF);
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  Slice in(buf);
  uint16_t v16;
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed16(&in, &v16));
  ASSERT_TRUE(GetFixed32(&in, &v32));
  ASSERT_TRUE(GetFixed64(&in, &v64));
  EXPECT_EQ(v16, 0xBEEF);
  EXPECT_EQ(v32, 0xDEADBEEFu);
  EXPECT_EQ(v64, 0x0123456789ABCDEFull);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTripBoundaries) {
  std::string buf;
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  (1ull << 32) - 1, 1ull << 32, UINT64_MAX};
  for (uint64_t v : values) PutVarint64(&buf, v);
  Slice in(buf);
  for (uint64_t expected : values) {
    uint64_t v;
    ASSERT_TRUE(GetVarint64(&in, &v));
    EXPECT_EQ(v, expected);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Varint32RejectsOverflow) {
  std::string buf;
  PutVarint64(&buf, 1ull << 33);
  Slice in(buf);
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&in, &v));
}

TEST(CodingTest, TruncatedInputFails) {
  std::string buf;
  PutVarint64(&buf, 300);
  Slice in(buf.data(), 1);  // Continuation bit set, no continuation byte.
  uint64_t v;
  EXPECT_FALSE(GetVarint64(&in, &v));
  Slice in2("ab");
  uint32_t v32;
  EXPECT_FALSE(GetFixed32(&in2, &v32));
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, "hello");
  PutLengthPrefixedSlice(&buf, "");
  PutLengthPrefixedSlice(&buf, std::string(1000, 'x'));
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &c));
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 1000u);
}

TEST(CodingTest, ZigZag) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-12345},
                    INT64_MIN, INT64_MAX}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  // Small magnitudes get small encodings.
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC32C test vector: "123456789" -> 0xE3069283.
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xE3069283u);
  // All zeros, 32 bytes -> 0x8A9136AA (from the iSCSI spec examples).
  std::string zeros(32, '\0');
  EXPECT_EQ(crc32c::Value(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, ExtendMatchesWholeBuffer) {
  std::string data = "The quick brown fox jumps over the lazy dog";
  uint32_t whole = crc32c::Value(data.data(), data.size());
  uint32_t split = crc32c::Extend(crc32c::Value(data.data(), 10),
                                  data.data() + 10, data.size() - 10);
  EXPECT_EQ(whole, split);
}

TEST(Crc32cTest, KnownVectorsOnBothKernels) {
  const std::string zeros(32, '\0');
  EXPECT_EQ(crc32c::ExtendPortable(0, "123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c::ExtendPortable(0, zeros.data(), zeros.size()),
            0x8A9136AAu);
  if (!crc32c::HardwareAvailable()) GTEST_SKIP() << "no CRC32C instruction";
  EXPECT_EQ(crc32c::ExtendHardware(0, "123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c::ExtendHardware(0, zeros.data(), zeros.size()),
            0x8A9136AAu);
}

TEST(Crc32cTest, HardwareKernelMatchesPortable) {
  if (!crc32c::HardwareAvailable()) GTEST_SKIP() << "no CRC32C instruction";
  // Random bytes at every start offset mod 8 (the hardware kernel steps
  // bytes up to an 8-byte boundary), random lengths up to 4 KB, and each
  // checksum also computed as two Extend calls split at a random point.
  Random rnd(20261020);
  std::string buf(4096 + 16, '\0');
  for (char& c : buf) c = static_cast<char>(rnd.Next());
  for (int trial = 0; trial < 3000; trial++) {
    const size_t start = rnd.Uniform(16);
    const size_t n = trial < 64 ? trial : rnd.Uniform(4097);
    const char* p = buf.data() + start;
    const uint32_t init =
        trial % 2 == 0 ? 0 : static_cast<uint32_t>(rnd.Next());
    const uint32_t want = crc32c::ExtendPortable(init, p, n);
    ASSERT_EQ(crc32c::ExtendHardware(init, p, n), want)
        << "start " << start << " length " << n;
    ASSERT_EQ(crc32c::Extend(init, p, n), want);
    const size_t split = n == 0 ? 0 : rnd.Uniform(n + 1);
    ASSERT_EQ(crc32c::ExtendHardware(crc32c::ExtendHardware(init, p, split),
                                     p + split, n - split),
              want)
        << "split " << split << " of " << n;
    ASSERT_EQ(crc32c::ExtendPortable(crc32c::ExtendPortable(init, p, split),
                                     p + split, n - split),
              want);
  }
}

TEST(Crc32cTest, MaskRoundTrip) {
  uint32_t crc = crc32c::Value("data", 4);
  EXPECT_NE(crc, crc32c::Mask(crc));
  EXPECT_EQ(crc, crc32c::Unmask(crc32c::Mask(crc)));
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(1);
  for (int i = 0; i < 1000; i++) {
    uint64_t v = r.Uniform(10);
    EXPECT_LT(v, 10u);
  }
  for (int i = 0; i < 1000; i++) {
    int64_t v = r.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, BytesAreIncompressibleLength) {
  Random r(7);
  EXPECT_EQ(r.Bytes(0).size(), 0u);
  EXPECT_EQ(r.Bytes(13).size(), 13u);
  EXPECT_EQ(r.Bytes(4096).size(), 4096u);
}

TEST(RandomTest, BernoulliRoughlyCalibrated) {
  Random r(99);
  int hits = 0;
  for (int i = 0; i < 10000; i++) hits += r.Bernoulli(0.3);
  EXPECT_GT(hits, 2500);
  EXPECT_LT(hits, 3500);
}

TEST(SimClockTest, AdvanceAndSet) {
  SimClock clock(1000);
  EXPECT_EQ(clock.Now(), 1000);
  clock.Advance(500);
  EXPECT_EQ(clock.Now(), 1500);
  clock.Set(42);
  EXPECT_EQ(clock.Now(), 42);
}

TEST(SystemClockTest, MovesForward) {
  auto clock = SystemClock::Instance();
  Timestamp a = clock->Now();
  Timestamp b = clock->Now();
  EXPECT_GE(b, a);
  // Sanity: after 2020-01-01 in microseconds.
  EXPECT_GT(a, 1577836800LL * 1000000);
}

TEST(SamplesTest, SummaryStatistics) {
  Samples s;
  for (int i = 1; i <= 100; i++) s.Add(i);
  EXPECT_DOUBLE_EQ(s.Mean(), 50.5);
  EXPECT_DOUBLE_EQ(s.Min(), 1);
  EXPECT_DOUBLE_EQ(s.Max(), 100);
  EXPECT_NEAR(s.Quantile(0.5), 50.5, 0.01);
  EXPECT_NEAR(s.Quantile(0.9), 90.1, 0.2);
}

TEST(SamplesTest, ConfidenceIntervalShrinksWithSamples) {
  Samples small, large;
  Random r(5);
  for (int i = 0; i < 5; i++) small.Add(r.NextDouble());
  for (int i = 0; i < 500; i++) large.Add(r.NextDouble());
  EXPECT_GT(small.ConfidenceInterval95(), large.ConfidenceInterval95());
}

TEST(SamplesTest, CdfAt) {
  Samples s;
  for (int i = 1; i <= 10; i++) s.Add(i);
  EXPECT_DOUBLE_EQ(s.CdfAt(0), 0.0);
  EXPECT_DOUBLE_EQ(s.CdfAt(5), 0.5);
  EXPECT_DOUBLE_EQ(s.CdfAt(100), 1.0);
}

TEST(SamplesTest, EmptyIsSafe) {
  Samples s;
  EXPECT_EQ(s.Mean(), 0);
  EXPECT_EQ(s.Quantile(0.5), 0);
  EXPECT_EQ(s.ConfidenceInterval95(), 0);
}

TEST(LatencyHistogramTest, BucketsExactBelowSubBucketCount) {
  for (uint64_t v = 0; v < LatencyHistogram::kSubBucketCount; v++) {
    EXPECT_EQ(LatencyHistogram::BucketFor(v), v);
    EXPECT_EQ(LatencyHistogram::BucketValue(v), v);
  }
}

TEST(LatencyHistogramTest, BucketMidpointsRoundTrip) {
  // Every bucket's representative value maps back to that bucket, across
  // the full uint64 range.
  for (size_t b = 0; b < LatencyHistogram::kNumBuckets; b++) {
    uint64_t v = LatencyHistogram::BucketValue(b);
    EXPECT_EQ(LatencyHistogram::BucketFor(v), b) << "bucket " << b;
  }
}

TEST(LatencyHistogramTest, BucketErrorBoundedBySubBucketWidth) {
  // A bucket's midpoint is within 1/kSubBucketCount of the recorded value —
  // the ±~3% quantile accuracy the snapshot documents.
  Random rng(11);
  for (int i = 0; i < 10000; i++) {
    uint64_t v = rng.Next() >> (rng.Uniform(63));
    uint64_t rep = LatencyHistogram::BucketValue(LatencyHistogram::BucketFor(v));
    double err = std::abs(static_cast<double>(rep) - static_cast<double>(v));
    EXPECT_LE(err, static_cast<double>(v) / LatencyHistogram::kSubBucketCount + 1)
        << "v=" << v << " rep=" << rep;
  }
}

TEST(LatencyHistogramTest, ZeroRecordsAsOneMicro) {
  LatencyHistogram h;
  h.Record(0);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, 1u);
  EXPECT_EQ(snap.P50(), 1u);
}

TEST(LatencyHistogramTest, QuantilesTrackUniformData) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 1000; v++) h.Record(v);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(h.Count(), 1000u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 500.5);  // Sum is exact.
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, 1000u);  // Max is exact.
  EXPECT_NEAR(snap.P50(), 500, 500 * 0.07);
  EXPECT_NEAR(snap.P90(), 900, 900 * 0.07);
  EXPECT_NEAR(snap.P99(), 990, 990 * 0.07);
  EXPECT_LE(snap.ValueAtQuantile(1.0), 1000u);
}

TEST(LatencyHistogramTest, EmptySnapshotIsZero) {
  LatencyHistogram h;
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.Mean(), 0.0);
  EXPECT_EQ(snap.P50(), 0u);
  EXPECT_EQ(snap.P999(), 0u);
}

TEST(FormatQuantileSummaryTest, PinnedFormat) {
  // Both bench output (SummaryString) and server stats
  // (HistogramSnapshot::ToString) render through this one format; pin it.
  EXPECT_EQ(FormatQuantileSummary(5, 1.5, 2, 3, 4, 0.5, 9),
            "n=5 mean=1.500 p50=2.000 p90=3.000 p99=4.000 min=0.500 max=9.000");
}

TEST(FormatQuantileSummaryTest, SamplesAndSnapshotRenderIdentically) {
  // One value, exactly representable in both: the two summaries must agree
  // byte for byte.
  Samples s;
  s.Add(8);
  LatencyHistogram h;
  h.Record(8);
  EXPECT_EQ(SummaryString(s), h.Snapshot().ToString());
  EXPECT_EQ(SummaryString(s),
            "n=1 mean=8.000 p50=8.000 p90=8.000 p99=8.000 min=8.000 max=8.000");
}

TEST(MetricsRegistryTest, InstrumentsAreStableAndNamed) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("server.requests");
  EXPECT_EQ(a, reg.GetCounter("server.requests"));
  a->Increment();
  a->Add(4);
  EXPECT_EQ(a->Value(), 5);
  reg.GetCounter("server.errors")->Add(2);

  auto counters = reg.CounterValues();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "server.errors");  // Name-sorted.
  EXPECT_EQ(counters[0].second, 2);
  EXPECT_EQ(counters[1].first, "server.requests");
  EXPECT_EQ(counters[1].second, 5);

  LatencyHistogram* h = reg.GetHistogram("server.op.query.micros");
  EXPECT_EQ(h, reg.GetHistogram("server.op.query.micros"));
  h->Record(42);
  auto snaps = reg.HistogramSnapshots();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].first, "server.op.query.micros");
  EXPECT_EQ(snaps[0].second.count, 1u);
}

TEST(LoggerTest, StructuredLineFormat) {
  auto sink = std::make_shared<CaptureLogSink>();
  Logger log(LogLevel::kDebug, sink);
  log.Warn("tablet_quarantined",
           {{"table", std::string("usage")},
            {"n", 7},
            {"ok", false},
            {"status", Status::Corruption("bad \"block\"")}});
  auto lines = sink->lines();
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  EXPECT_EQ(line.rfind("ts=", 0), 0u) << line;
  EXPECT_NE(line.find(" mono_us="), std::string::npos) << line;
  EXPECT_NE(line.find(" level=warn"), std::string::npos) << line;
  EXPECT_NE(line.find(" event=tablet_quarantined"), std::string::npos) << line;
  // Strings quoted (with escaping); numerics and booleans bare.
  EXPECT_NE(line.find(" table=\"usage\""), std::string::npos) << line;
  EXPECT_NE(line.find(" n=7"), std::string::npos) << line;
  EXPECT_NE(line.find(" ok=false"), std::string::npos) << line;
  EXPECT_NE(line.find(" status=\"Corruption: bad \\\"block\\\"\""),
            std::string::npos)
      << line;
}

TEST(LoggerTest, MinLevelFilters) {
  auto sink = std::make_shared<CaptureLogSink>();
  Logger log(LogLevel::kWarn, sink);
  EXPECT_FALSE(log.Enabled(LogLevel::kInfo));
  EXPECT_TRUE(log.Enabled(LogLevel::kWarn));
  log.Debug("d", {});
  log.Info("i", {});
  EXPECT_TRUE(sink->lines().empty());
  log.Error("e", {});
  EXPECT_EQ(sink->lines().size(), 1u);
  log.set_min_level(LogLevel::kDebug);
  log.Debug("d", {});
  EXPECT_EQ(sink->lines().size(), 2u);
}

}  // namespace
}  // namespace lt
