#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "util/encoding.hpp"
#include "util/erasure.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"
#include "util/symbol.hpp"
#include "util/symbol_map.hpp"
#include "util/token_bucket.hpp"

namespace hpop::util {
namespace {

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, NistVectorEmpty) {
  EXPECT_EQ(digest_hex(Sha256::digest("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, NistVectorAbc) {
  EXPECT_EQ(digest_hex(Sha256::digest("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, NistVectorTwoBlocks) {
  EXPECT_EQ(
      digest_hex(Sha256::digest(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.update(data.substr(0, split));
    h.update(data.substr(split));
    EXPECT_EQ(h.finish(), Sha256::digest(data)) << "split=" << split;
  }
}

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(digest_hex(hmac_sha256(key, "Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(
      digest_hex(hmac_sha256(to_bytes("Jefe"), "what do ya want for nothing?")),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(digest_hex(hmac_sha256(
                key, "Test Using Larger Than Block-Size Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, KeyedDifferently) {
  EXPECT_NE(hmac_sha256(to_bytes("k1"), "msg"),
            hmac_sha256(to_bytes("k2"), "msg"));
}

TEST(DigestEqual, DetectsDifference) {
  Digest a = Sha256::digest("x");
  Digest b = a;
  EXPECT_TRUE(digest_equal(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(digest_equal(a, b));
}

// ---------------------------------------------------------------- FNV-1a

TEST(Fnv1a, ReferenceVectors) {
  auto of = [](std::string_view s) {
    return Fnv1a{}.bytes(s.data(), s.size()).h;
  };
  EXPECT_EQ(of(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(of("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(of("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a, WordsStringsAndDoublesAreTheirBytes) {
  const std::uint8_t le[8] = {0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(Fnv1a{}.u64(0x0102030405060708ull).h, Fnv1a{}.bytes(le, 8).h);
  EXPECT_EQ(Fnv1a{}.str("foobar").h,
            Fnv1a{}.u64(6).bytes("foobar", 6).h);
  EXPECT_EQ(Fnv1a{}.f64(1.5).h, Fnv1a{}.u64(0x3ff8000000000000ull).h);
  EXPECT_EQ(Fnv1a{Fnv1a::kLegacyBasis}.h, 0x14650fb0739d0383ull);
}

// ---------------------------------------------------------------- Encoding

TEST(Hex, RoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x10};
  const std::string hex = hex_encode(data);
  EXPECT_EQ(hex, "0001abff10");
  const auto back = hex_decode(hex);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
}

TEST(Hex, RejectsBadInput) {
  EXPECT_FALSE(hex_decode("abc").ok());   // odd length
  EXPECT_FALSE(hex_decode("zz").ok());    // bad digit
}

TEST(Base64, KnownVectors) {
  EXPECT_EQ(base64_encode(to_bytes("")), "");
  EXPECT_EQ(base64_encode(to_bytes("f")), "Zg==");
  EXPECT_EQ(base64_encode(to_bytes("fo")), "Zm8=");
  EXPECT_EQ(base64_encode(to_bytes("foo")), "Zm9v");
  EXPECT_EQ(base64_encode(to_bytes("foob")), "Zm9vYg==");
  EXPECT_EQ(base64_encode(to_bytes("fooba")), "Zm9vYmE=");
  EXPECT_EQ(base64_encode(to_bytes("foobar")), "Zm9vYmFy");
}

TEST(Base64, RoundTripRandom) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes data(rng.uniform_index(200));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto back = base64_decode(base64_encode(data));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), data);
  }
}

TEST(Base64, RejectsBadInput) {
  EXPECT_FALSE(base64_decode("Zg=").ok());     // bad length
  EXPECT_FALSE(base64_decode("Z===").ok());    // misplaced padding
  EXPECT_FALSE(base64_decode("Zg=a").ok());    // data after padding
  EXPECT_FALSE(base64_decode("Zg!!").ok());    // bad alphabet
}

// ---------------------------------------------------------------- Erasure

TEST(ReedSolomon, RoundTripNoLoss) {
  ReedSolomon rs(4, 2);
  const Bytes data = to_bytes("hello erasure coded world!");
  auto shards = rs.encode(data);
  ASSERT_EQ(shards.size(), 6u);
  std::vector<std::optional<Bytes>> input(shards.begin(), shards.end());
  const auto out = rs.decode(input, data.size());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), data);
}

TEST(ReedSolomon, RecoversFromAnyMParityLosses) {
  Rng rng(7);
  ReedSolomon rs(5, 3);
  Bytes data(997);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto shards = rs.encode(data);

  // Every way of losing exactly 3 of 8 shards must still decode.
  for (int a = 0; a < 8; ++a) {
    for (int b = a + 1; b < 8; ++b) {
      for (int c = b + 1; c < 8; ++c) {
        std::vector<std::optional<Bytes>> input(shards.begin(), shards.end());
        input[a].reset();
        input[b].reset();
        input[c].reset();
        const auto out = rs.decode(input, data.size());
        ASSERT_TRUE(out.ok()) << a << "," << b << "," << c;
        EXPECT_EQ(out.value(), data);
      }
    }
  }
}

TEST(ReedSolomon, FailsBelowThreshold) {
  ReedSolomon rs(4, 2);
  const Bytes data = to_bytes("0123456789abcdef");
  const auto shards = rs.encode(data);
  std::vector<std::optional<Bytes>> input(shards.begin(), shards.end());
  input[0].reset();
  input[1].reset();
  input[2].reset();  // only 3 of required 4 remain
  EXPECT_FALSE(rs.decode(input, data.size()).ok());
}

TEST(ReedSolomon, RejectsBadParams) {
  EXPECT_THROW(ReedSolomon(0, 1), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(1, 0), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(200, 56), std::invalid_argument);
}

struct RsParams {
  int k;
  int m;
  std::size_t size;
};

class ReedSolomonSweep : public ::testing::TestWithParam<RsParams> {};

TEST_P(ReedSolomonSweep, RandomErasuresDecode) {
  const auto [k, m, size] = GetParam();
  Rng rng(1234 + static_cast<std::uint64_t>(k * 100 + m));
  ReedSolomon rs(k, m);
  Bytes data(size);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto shards = rs.encode(data);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::optional<Bytes>> input(shards.begin(), shards.end());
    for (std::size_t lost :
         rng.sample_indices(static_cast<std::size_t>(k + m),
                            static_cast<std::size_t>(m))) {
      input[lost].reset();
    }
    const auto out = rs.decode(input, data.size());
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), data);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codes, ReedSolomonSweep,
    ::testing::Values(RsParams{1, 1, 10}, RsParams{2, 1, 100},
                      RsParams{3, 2, 1000}, RsParams{6, 3, 64},
                      RsParams{10, 4, 4096}, RsParams{8, 8, 333},
                      RsParams{16, 4, 10000}));

TEST(ErasureAvailability, MatchesClosedFormForReplication) {
  // (k=1, m=n-1) is n-way replication: availability = 1 - (1-p)^n.
  for (const double p : {0.5, 0.9, 0.99}) {
    for (const int n : {2, 3, 5}) {
      EXPECT_NEAR(erasure_availability(1, n - 1, p),
                  1.0 - std::pow(1.0 - p, n), 1e-9);
    }
  }
}

TEST(ErasureAvailability, MonotoneInParityAndUptime) {
  EXPECT_LT(erasure_availability(4, 1, 0.9), erasure_availability(4, 3, 0.9));
  EXPECT_LT(erasure_availability(4, 2, 0.8), erasure_availability(4, 2, 0.95));
}

// ---------------------------------------------------------------- RNG

TEST(Rng, Deterministic) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkIndependent) {
  Rng a(99);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(6);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(7);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(8);
  const auto idx = rng.sample_indices(100, 30);
  ASSERT_EQ(idx.size(), 30u);
  auto sorted = idx;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_LT(sorted.back(), 100u);
}

TEST(Zipf, RankZeroMostPopular) {
  Rng rng(9);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
  // Zipf(1.0): rank 0 is ~10x rank 9's frequency.
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[9], 10.0, 3.0);
}

// ---------------------------------------------------------------- Stats

TEST(Summary, Percentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1);
  EXPECT_DOUBLE_EQ(s.max(), 100);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0.99), 99.01, 0.1);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(Summary, FractionAbove) {
  Summary s;
  for (int i = 1; i <= 1000; ++i) s.add(i);
  EXPECT_NEAR(s.fraction_above(990), 0.01, 1e-9);
  EXPECT_NEAR(s.fraction_above(0), 1.0, 1e-9);
  EXPECT_NEAR(s.fraction_above(1000), 0.0, 1e-9);
}

TEST(Summary, EmptyQueriesReturnZero) {
  const Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.fraction_above(-1e9), 0.0);
}

TEST(Summary, SingleSampleIsEveryPercentile) {
  Summary s;
  s.add(7.5);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 7.5);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 7.5);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 7.5);
  EXPECT_DOUBLE_EQ(s.min(), 7.5);
  EXPECT_DOUBLE_EQ(s.max(), 7.5);
}

TEST(Summary, PercentileEndpointsHitMinAndMax) {
  Summary s;
  for (int i = 10; i >= 1; --i) s.add(i);  // unsorted insert order
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 10.0);
}

TEST(Summary, FractionAboveIsStrict) {
  Summary s;
  s.add(1);
  s.add(2);
  s.add(2);
  s.add(3);
  // Samples equal to the threshold do not count as "above".
  EXPECT_DOUBLE_EQ(s.fraction_above(2.0), 0.25);
  EXPECT_DOUBLE_EQ(s.fraction_above(3.0), 0.0);
  EXPECT_DOUBLE_EQ(s.fraction_above(0.5), 1.0);
}

TEST(Summary, AddAfterQuery) {
  Summary s;
  s.add(1);
  EXPECT_DOUBLE_EQ(s.max(), 1);
  s.add(10);
  EXPECT_DOUBLE_EQ(s.max(), 10);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0, 10, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-5);   // clamps to first bin
  h.add(100);  // clamps to last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 1.0);
}

TEST(Histogram, ClampsToEdgeBins) {
  Histogram h(10, 20, 5);
  h.add(9.999);   // below range: first bin
  h.add(-1e6);    // far below: still first bin
  h.add(20.0);    // exactly hi (range is [lo, hi)): last bin
  h.add(1e6);     // far above: last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, BinEdgesPartitionRange) {
  Histogram h(0, 10, 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.5);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 7.5);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 10.0);
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2.5"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| longer"), std::string::npos);
}

// ---------------------------------------------------------------- Time

TEST(Time, TransmissionDelay) {
  // 1250 bytes at 1 Gbps = 10 us.
  EXPECT_EQ(transmission_delay(1250, 1 * kGbps), 10 * kMicrosecond);
}

TEST(Time, Conversions) {
  EXPECT_EQ(seconds(1.5), 1'500'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(2 * kSecond), 2.0);
  EXPECT_DOUBLE_EQ(to_millis(kSecond), 1000.0);
}

// ---------------------------------------------------------------- Bucket

TEST(TokenBucket, TakesUpToCapacity) {
  TokenBucket tb(100.0, 50.0);
  EXPECT_TRUE(tb.try_take(50.0, 0));
  EXPECT_FALSE(tb.try_take(1.0, 0));
}

TEST(TokenBucket, RefillsOverTime) {
  TokenBucket tb(100.0, 50.0);
  ASSERT_TRUE(tb.try_take(50.0, 0));
  EXPECT_FALSE(tb.try_take(10.0, 0));
  EXPECT_TRUE(tb.try_take(10.0, seconds(0.1)));  // 10 tokens refilled
}

TEST(TokenBucket, AvailableAt) {
  TokenBucket tb(10.0, 10.0);
  ASSERT_TRUE(tb.try_take(10.0, 0));
  EXPECT_EQ(tb.available_at(5.0, 0), seconds(0.5));
  EXPECT_EQ(tb.available_at(0.0, seconds(1)), seconds(1));
}

TEST(TokenBucket, CapsAtCapacity) {
  TokenBucket tb(100.0, 50.0);
  EXPECT_NEAR(tb.level(seconds(100)), 50.0, 1e-9);
}

// -------------------------------------------------------------- SymbolMap

TEST(SymbolMap, FindInsertEraseRoundTrip) {
  SymbolMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find("alpha"), nullptr);

  map["alpha"] = 1;
  map["beta"] = 2;
  map.insert_or_assign("alpha", 10);
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.find("alpha"), nullptr);
  EXPECT_EQ(*map.find("alpha"), 10);
  EXPECT_EQ(*map.find(Symbol::intern("beta")), 2);
  EXPECT_TRUE(map.contains("beta"));
  EXPECT_FALSE(map.contains("gamma"));

  EXPECT_TRUE(map.erase("alpha"));
  EXPECT_FALSE(map.erase("alpha"));
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.find("alpha"), nullptr);
  EXPECT_EQ(*map.find("beta"), 2);
}

TEST(SymbolMap, IterationFollowsInsertionOrderNotSymbolIds) {
  // Interning "zz" before "aa" gives "zz" the smaller id; iteration must
  // still follow insertion order or sweep reports would depend on the
  // process-wide intern history.
  SymbolMap<int> map;
  map["zz-metro-order"] = 1;
  map["aa-metro-order"] = 2;
  map["mm-metro-order"] = 3;
  std::vector<std::string> keys;
  for (const auto& [sym, value] : map) keys.push_back(std::string(sym.str()));
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "zz-metro-order");
  EXPECT_EQ(keys[1], "aa-metro-order");
  EXPECT_EQ(keys[2], "mm-metro-order");

  // Erase keeps the relative order of survivors.
  map.erase("aa-metro-order");
  keys.clear();
  for (const auto& [sym, value] : map) keys.push_back(std::string(sym.str()));
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "zz-metro-order");
  EXPECT_EQ(keys[1], "mm-metro-order");
}

TEST(SymbolMap, ManyEntriesStayConsistent) {
  SymbolMap<std::size_t> map;
  map.reserve(200);
  for (std::size_t i = 0; i < 200; ++i) {
    map["k" + std::to_string(i)] = i;
  }
  EXPECT_EQ(map.size(), 200u);
  for (std::size_t i = 0; i < 200; ++i) {
    ASSERT_NE(map.find("k" + std::to_string(i)), nullptr);
    EXPECT_EQ(*map.find("k" + std::to_string(i)), i);
  }
  std::size_t pos = 0;
  for (const auto& [sym, value] : map) EXPECT_EQ(value, pos++);
}

}  // namespace
}  // namespace hpop::util
