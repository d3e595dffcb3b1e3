#include "common/random.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "common/hash.h"
#include "eval/stats.h"

namespace ireduct {
namespace {

constexpr int kSamples = 200'000;

TEST(BitGenTest, DeterministicForSameSeed) {
  BitGen a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(BitGenTest, DifferentSeedsDiverge) {
  BitGen a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(BitGenTest, UniformInUnitInterval) {
  BitGen gen(7);
  double sum = 0;
  for (int i = 0; i < kSamples; ++i) {
    const double u = gen.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kSamples, 0.5, 0.005);
}

TEST(BitGenTest, UniformPositiveNeverZero) {
  BitGen gen(7);
  for (int i = 0; i < 10'000; ++i) ASSERT_GT(gen.UniformPositive(), 0.0);
}

TEST(BitGenTest, UniformRangeRespectsBounds) {
  BitGen gen(9);
  for (int i = 0; i < 10'000; ++i) {
    const double x = gen.Uniform(-3.0, 5.0);
    ASSERT_GE(x, -3.0);
    ASSERT_LT(x, 5.0);
  }
}

TEST(BitGenTest, UniformIntCoversRangeUniformly) {
  BitGen gen(11);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < kSamples; ++i) {
    const uint64_t v = gen.UniformInt(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / 10.0, 5 * std::sqrt(kSamples / 10.0));
  }
}

TEST(BitGenTest, ExponentialMatchesMeanAndVariance) {
  BitGen gen(13);
  std::vector<double> sample(kSamples);
  for (double& x : sample) x = gen.Exponential(2.5);
  const SampleSummary s = Summarize(sample);
  EXPECT_NEAR(s.mean, 2.5, 0.05);
  EXPECT_NEAR(s.variance, 2.5 * 2.5, 0.25);
  EXPECT_GE(s.min, 0.0);
}

TEST(BitGenTest, LaplaceMatchesMomentsAndMad) {
  BitGen gen(17);
  const double scale = 3.0;
  std::vector<double> sample(kSamples);
  for (double& x : sample) x = gen.Laplace(scale);
  const SampleSummary s = Summarize(sample);
  // Laplace(b): mean 0, variance 2b², expected absolute deviation b.
  EXPECT_NEAR(s.mean, 0.0, 0.05);
  EXPECT_NEAR(s.variance, 2 * scale * scale, 0.5);
  EXPECT_NEAR(s.mean_abs_deviation, scale, 0.05);
}

TEST(BitGenTest, LaplaceWithLocationShiftsMean) {
  BitGen gen(19);
  double sum = 0;
  for (int i = 0; i < kSamples; ++i) sum += gen.Laplace(100.0, 1.0);
  EXPECT_NEAR(sum / kSamples, 100.0, 0.05);
}

TEST(BitGenTest, LaplacePassesKsAgainstAnalyticCdf) {
  BitGen gen(23);
  std::vector<double> sample(50'000);
  for (double& x : sample) x = gen.Laplace(5.0, 2.0);
  const double ks = KsStatistic(
      sample, [](double x) { return LaplaceCdf(x, 5.0, 2.0); });
  // 1.63/sqrt(n) is the 1% critical value of the one-sample KS test.
  EXPECT_LT(ks, 1.63 / std::sqrt(50'000.0));
}

TEST(BitGenTest, TruncatedExponentialStaysInInterval) {
  BitGen gen(29);
  for (int i = 0; i < 20'000; ++i) {
    const double x = gen.TruncatedExponential(1.5, 2.0, 4.5);
    ASSERT_GE(x, 2.0);
    ASSERT_LE(x, 4.5);
  }
}

TEST(BitGenTest, TruncatedExponentialMatchesAnalyticCdf) {
  BitGen gen(31);
  const double mean = 2.0, lo = 1.0, hi = 6.0;
  std::vector<double> sample(50'000);
  for (double& x : sample) x = gen.TruncatedExponential(mean, lo, hi);
  auto cdf = [&](double x) {
    return std::expm1(-(x - lo) / mean) / std::expm1(-(hi - lo) / mean);
  };
  EXPECT_LT(KsStatistic(sample, cdf), 1.63 / std::sqrt(50'000.0));
}

TEST(BitGenTest, TruncatedExponentialUnboundedMatchesShiftedExponential) {
  BitGen gen(37);
  std::vector<double> sample(50'000);
  const double inf = std::numeric_limits<double>::infinity();
  for (double& x : sample) x = gen.TruncatedExponential(3.0, 10.0, inf);
  const SampleSummary s = Summarize(sample);
  EXPECT_NEAR(s.mean, 13.0, 0.1);
  EXPECT_GE(s.min, 10.0);
}

TEST(BitGenTest, ForkIsDeterministic) {
  // Same-seeded parents produce identical substreams, and forking costs
  // the parent exactly one draw — the substream-determinism contract the
  // batched iReduct round mode depends on.
  BitGen a(55), b(55);
  BitGen fa = a.Fork();
  BitGen fb = b.Fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fa(), fb());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(BitGenTest, ForkDivergesFromParentAndSiblings) {
  BitGen parent(77);
  BitGen child1 = parent.Fork();
  BitGen child2 = parent.Fork();
  int parent_eq = 0, sibling_eq = 0;
  BitGen reference(77);
  reference();  // skip the draw consumed by the first fork
  reference();  // ... and the second
  for (int i = 0; i < 100; ++i) {
    const uint64_t c1 = child1(), c2 = child2();
    parent_eq += (c1 == reference());
    sibling_eq += (c1 == c2);
  }
  EXPECT_LT(parent_eq, 3);
  EXPECT_LT(sibling_eq, 3);
}

TEST(BitGenTest, ForkAdvancesParentByOneDraw) {
  BitGen forked(91), plain(91);
  forked.Fork();
  plain();  // one manual draw
  for (int i = 0; i < 50; ++i) EXPECT_EQ(forked(), plain());
}

// A batch's outputs are a prefix of any longer batch from the same state:
// the batch size never changes which variate lands at index i.
TEST(BitGenTest, LaplaceBatchIsPrefixStableAcrossLengths) {
  std::vector<double> scales(1001);
  for (size_t i = 0; i < scales.size(); ++i) {
    scales[i] = 0.25 + static_cast<double>(i % 7);
  }
  std::vector<double> full(scales.size());
  BitGen(7).LaplaceBatch(scales, full);
  for (const size_t n : {1ul, 5ul, 64ul, 999ul}) {
    std::vector<double> part(n);
    BitGen(7).LaplaceBatch(std::span<const double>(scales).first(n), part);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(part[i]),
                std::bit_cast<uint64_t>(full[i]))
          << "batch of " << n << " diverges at " << i;
    }
  }
}

// The batch forks four substreams, so it advances the parent by exactly
// four Fork draws whatever its size — the resume/checkpoint contract.
TEST(BitGenTest, LaplaceBatchAdvancesParentByExactlyFourDraws) {
  for (const size_t n : {1ul, 5ul, 1000ul}) {
    BitGen batched(123), manual(123);
    std::vector<double> scales(n, 2.0), out(n);
    batched.LaplaceBatch(scales, out);
    for (int i = 0; i < 4; ++i) manual.Fork();
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(batched(), manual()) << "after batch of " << n;
    }
  }
}

// The batch stream is distinct from the per-element Laplace stream, but it
// must still be a Laplace(scale) sample: check the first two moments.
TEST(BitGenTest, LaplaceBatchMatchesDistributionMoments) {
  const double scale = 3.0;
  BitGen gen(2011);
  std::vector<double> scales(kSamples, scale), sample(kSamples);
  gen.LaplaceBatch(scales, sample);
  const SampleSummary s = Summarize(sample);
  EXPECT_NEAR(s.mean, 0.0, 0.05);
  EXPECT_NEAR(s.variance, 2 * scale * scale, 0.5);
}

// LaplaceBatch is pinned, not just self-consistent: every released value a
// batch feeds (the Laplace mechanism, iResamp) must keep its bits. Per case:
// the FNV-1a 64 of the output bits in order, the first four outputs' bits
// (zero past n), and the parent's next raw draw, which pins how far the
// batch advanced it.
struct LaplaceBatchGolden {
  uint64_t seed;
  size_t n;
  uint64_t fnv;
  std::array<uint64_t, 4> first;
  uint64_t parent_next;
};

constexpr LaplaceBatchGolden kLaplaceBatchGolden[] = {
      {1, 0, 0xcbf29ce484222325ULL,
       {0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
        0x0000000000000000ULL},
       0xcfc5d07f6f03c29bULL},
      {1, 1, 0xb110a592ff8d6510ULL,
       {0xbfd3707d87537d8fULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
        0x0000000000000000ULL},
       0x2f47184b86186fa4ULL},
      {1, 2, 0x8b176beecc819667ULL,
       {0xbfd3707d87537d8fULL, 0x3fb46128a7c7977eULL, 0x0000000000000000ULL,
        0x0000000000000000ULL},
       0x2f47184b86186fa4ULL},
      {1, 3, 0x7c249ed9a846e106ULL,
       {0xbfd3707d87537d8fULL, 0x3fb46128a7c7977eULL, 0xc006db7fa71c6c40ULL,
        0x0000000000000000ULL},
       0x2f47184b86186fa4ULL},
      {1, 4, 0x9fc77e9e8212c768ULL,
       {0xbfd3707d87537d8fULL, 0x3fb46128a7c7977eULL, 0xc006db7fa71c6c40ULL,
        0x3ffab8dd9f306653ULL},
       0x2f47184b86186fa4ULL},
      {1, 5, 0xa892d58b9a429551ULL,
       {0xbfd3707d87537d8fULL, 0x3fb46128a7c7977eULL, 0xc006db7fa71c6c40ULL,
        0x3ffab8dd9f306653ULL},
       0x2f47184b86186fa4ULL},
      {1, 7, 0x354a227cda1df85cULL,
       {0xbfd3707d87537d8fULL, 0x3fb46128a7c7977eULL, 0xc006db7fa71c6c40ULL,
        0x3ffab8dd9f306653ULL},
       0x2f47184b86186fa4ULL},
      {1, 8, 0x58ec3bf9f7cfec6aULL,
       {0xbfd3707d87537d8fULL, 0x3fb46128a7c7977eULL, 0xc006db7fa71c6c40ULL,
        0x3ffab8dd9f306653ULL},
       0x2f47184b86186fa4ULL},
      {1, 16, 0x0c55cb2a47a53651ULL,
       {0xbfd3707d87537d8fULL, 0x3fb46128a7c7977eULL, 0xc006db7fa71c6c40ULL,
        0x3ffab8dd9f306653ULL},
       0x2f47184b86186fa4ULL},
      {1, 63, 0x661f2fd2f8dcbecfULL,
       {0xbfd3707d87537d8fULL, 0x3fb46128a7c7977eULL, 0xc006db7fa71c6c40ULL,
        0x3ffab8dd9f306653ULL},
       0x2f47184b86186fa4ULL},
      {1, 1000, 0x583a5eb3f8a2921dULL,
       {0xbfd3707d87537d8fULL, 0x3fb46128a7c7977eULL, 0xc006db7fa71c6c40ULL,
        0x3ffab8dd9f306653ULL},
       0x2f47184b86186fa4ULL},
      {1, 1001, 0xb0bf13bcaaaecb22ULL,
       {0xbfd3707d87537d8fULL, 0x3fb46128a7c7977eULL, 0xc006db7fa71c6c40ULL,
        0x3ffab8dd9f306653ULL},
       0x2f47184b86186fa4ULL},
      {42, 0, 0xcbf29ce484222325ULL,
       {0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
        0x0000000000000000ULL},
       0xd0764d4f4476689fULL},
      {42, 1, 0x9466c3979a5f2e4eULL,
       {0xbfbe4b341a5b78c4ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
        0x0000000000000000ULL},
       0xcb231c3874846a73ULL},
      {42, 2, 0x6da9e6547d30eac7ULL,
       {0xbfbe4b341a5b78c4ULL, 0xbff529b8917d62aeULL, 0x0000000000000000ULL,
        0x0000000000000000ULL},
       0xcb231c3874846a73ULL},
      {42, 3, 0xc5afafd67cc2d679ULL,
       {0xbfbe4b341a5b78c4ULL, 0xbff529b8917d62aeULL, 0x3ff81fb88ddd45f7ULL,
        0x0000000000000000ULL},
       0xcb231c3874846a73ULL},
      {42, 4, 0xc8ca15690c4a3e72ULL,
       {0xbfbe4b341a5b78c4ULL, 0xbff529b8917d62aeULL, 0x3ff81fb88ddd45f7ULL,
        0xc01ae9cee0aadf2fULL},
       0xcb231c3874846a73ULL},
      {42, 5, 0x6e0cc45283e76a09ULL,
       {0xbfbe4b341a5b78c4ULL, 0xbff529b8917d62aeULL, 0x3ff81fb88ddd45f7ULL,
        0xc01ae9cee0aadf2fULL},
       0xcb231c3874846a73ULL},
      {42, 7, 0x66f76de556e8f3e5ULL,
       {0xbfbe4b341a5b78c4ULL, 0xbff529b8917d62aeULL, 0x3ff81fb88ddd45f7ULL,
        0xc01ae9cee0aadf2fULL},
       0xcb231c3874846a73ULL},
      {42, 8, 0x01643f4523268286ULL,
       {0xbfbe4b341a5b78c4ULL, 0xbff529b8917d62aeULL, 0x3ff81fb88ddd45f7ULL,
        0xc01ae9cee0aadf2fULL},
       0xcb231c3874846a73ULL},
      {42, 16, 0x40044fcdfe7e3b3cULL,
       {0xbfbe4b341a5b78c4ULL, 0xbff529b8917d62aeULL, 0x3ff81fb88ddd45f7ULL,
        0xc01ae9cee0aadf2fULL},
       0xcb231c3874846a73ULL},
      {42, 63, 0xc0898a241aef0e41ULL,
       {0xbfbe4b341a5b78c4ULL, 0xbff529b8917d62aeULL, 0x3ff81fb88ddd45f7ULL,
        0xc01ae9cee0aadf2fULL},
       0xcb231c3874846a73ULL},
      {42, 1000, 0x218ad5df12718631ULL,
       {0xbfbe4b341a5b78c4ULL, 0xbff529b8917d62aeULL, 0x3ff81fb88ddd45f7ULL,
        0xc01ae9cee0aadf2fULL},
       0xcb231c3874846a73ULL},
      {42, 1001, 0x8f242089c5492ae5ULL,
       {0xbfbe4b341a5b78c4ULL, 0xbff529b8917d62aeULL, 0x3ff81fb88ddd45f7ULL,
        0xc01ae9cee0aadf2fULL},
       0xcb231c3874846a73ULL},
      {9001, 0, 0xcbf29ce484222325ULL,
       {0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
        0x0000000000000000ULL},
       0x174bb434b7685204ULL},
      {9001, 1, 0xded167f7f3ae99f9ULL,
       {0x3fafb1cea165c6abULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
        0x0000000000000000ULL},
       0x2cdc04822277b75fULL},
      {9001, 2, 0x26bd9ee08cf57716ULL,
       {0x3fafb1cea165c6abULL, 0x3feeb41ddde18bdaULL, 0x0000000000000000ULL,
        0x0000000000000000ULL},
       0x2cdc04822277b75fULL},
      {9001, 3, 0x70ee98d45fad5028ULL,
       {0x3fafb1cea165c6abULL, 0x3feeb41ddde18bdaULL, 0x3ffd9dcbd9fbf0aaULL,
        0x0000000000000000ULL},
       0x2cdc04822277b75fULL},
      {9001, 4, 0x4021907a7c21c276ULL,
       {0x3fafb1cea165c6abULL, 0x3feeb41ddde18bdaULL, 0x3ffd9dcbd9fbf0aaULL,
        0x3fe338a1cd35eaa9ULL},
       0x2cdc04822277b75fULL},
      {9001, 5, 0xb1efb19d06f0144fULL,
       {0x3fafb1cea165c6abULL, 0x3feeb41ddde18bdaULL, 0x3ffd9dcbd9fbf0aaULL,
        0x3fe338a1cd35eaa9ULL},
       0x2cdc04822277b75fULL},
      {9001, 7, 0x2c390b0fa746cedfULL,
       {0x3fafb1cea165c6abULL, 0x3feeb41ddde18bdaULL, 0x3ffd9dcbd9fbf0aaULL,
        0x3fe338a1cd35eaa9ULL},
       0x2cdc04822277b75fULL},
      {9001, 8, 0x7ae49d7e464e8aa6ULL,
       {0x3fafb1cea165c6abULL, 0x3feeb41ddde18bdaULL, 0x3ffd9dcbd9fbf0aaULL,
        0x3fe338a1cd35eaa9ULL},
       0x2cdc04822277b75fULL},
      {9001, 16, 0x06289d62fc1e2133ULL,
       {0x3fafb1cea165c6abULL, 0x3feeb41ddde18bdaULL, 0x3ffd9dcbd9fbf0aaULL,
        0x3fe338a1cd35eaa9ULL},
       0x2cdc04822277b75fULL},
      {9001, 63, 0xf97e38734b2a4982ULL,
       {0x3fafb1cea165c6abULL, 0x3feeb41ddde18bdaULL, 0x3ffd9dcbd9fbf0aaULL,
        0x3fe338a1cd35eaa9ULL},
       0x2cdc04822277b75fULL},
      {9001, 1000, 0xeab84729959d420dULL,
       {0x3fafb1cea165c6abULL, 0x3feeb41ddde18bdaULL, 0x3ffd9dcbd9fbf0aaULL,
        0x3fe338a1cd35eaa9ULL},
       0x2cdc04822277b75fULL},
      {9001, 1001, 0xbee73b1bdc6d8af4ULL,
       {0x3fafb1cea165c6abULL, 0x3feeb41ddde18bdaULL, 0x3ffd9dcbd9fbf0aaULL,
        0x3fe338a1cd35eaa9ULL},
       0x2cdc04822277b75fULL},
};

TEST(BitGenTest, LaplaceBatchMatchesGolden) {
  for (const LaplaceBatchGolden& g : kLaplaceBatchGolden) {
    std::vector<double> scales(g.n), out(g.n);
    for (size_t i = 0; i < g.n; ++i) {
      scales[i] = 0.25 + static_cast<double>(i % 7);
    }
    BitGen gen(g.seed);
    gen.LaplaceBatch(scales, out);
    uint64_t fnv = kFnv1a64Basis;
    for (const double v : out) {
      fnv = Fnv1a64Int(fnv, std::bit_cast<uint64_t>(v));
    }
    std::array<uint64_t, 4> first{};
    for (size_t i = 0; i < g.n && i < first.size(); ++i) {
      first[i] = std::bit_cast<uint64_t>(out[i]);
    }
    SCOPED_TRACE("seed " + std::to_string(g.seed) + " n " +
                 std::to_string(g.n));
    EXPECT_EQ(fnv, g.fnv);
    EXPECT_EQ(first, g.first);
    EXPECT_EQ(gen(), g.parent_next);
  }
}

TEST(BitGenTest, BernoulliMatchesProbability) {
  BitGen gen(41);
  int hits = 0;
  for (int i = 0; i < kSamples; ++i) hits += gen.Bernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(kSamples), 0.3, 0.01);
  EXPECT_FALSE(gen.Bernoulli(0.0));
  EXPECT_TRUE(gen.Bernoulli(1.0));
}

}  // namespace
}  // namespace ireduct
