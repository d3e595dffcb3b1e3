// Golden bits of iReduct's released output. The digests below were captured
// from the build before NoiseDown's (λ, λ')-only constants were hoisted into
// a per-group value: they pin every NoiseDown draw, so a change inside the
// sampler that moves a single bit of one answer, one scale, the ε spent or
// the iteration count fails here. mechanism_parity_test and the
// naive-vs-incremental tests compare two callers of the same sampler and
// cannot see such a drift.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "algorithms/mechanism_registry.h"
#include "common/random.h"
#include "data/census_generator.h"
#include "dp/noise_down_chain.h"
#include "dp/privacy_accountant.h"
#include "marginals/marginal_set.h"
#include "marginals/marginal_workload.h"
#include "service/private_session.h"

namespace ireduct {
namespace {

constexpr uint64_t kRows = 20'000;
constexpr double kEpsilon = 0.05;
constexpr double kDelta = 2.0;  // 1e-4·|T|, the benches' sanity bound
constexpr int kLambdaSteps = 16;

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// FNV-1a 64 over the raw IEEE-754 bytes of `values`.
uint64_t DigestBits(const std::vector<double>& values) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const double v : values) {
    uint64_t bits = Bits(v);
    for (int i = 0; i < 8; ++i) {
      h ^= bits & 0xff;
      h *= 0x100000001b3ull;
      bits >>= 8;
    }
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

const Dataset& Census() {
  static const Dataset* const d = [] {
    auto r = GenerateCensus({CensusKind::kBrazil, kRows, 2011});
    EXPECT_TRUE(r.ok()) << r.status();
    return new Dataset(std::move(*r));
  }();
  return *d;
}

std::vector<MarginalSpec> TwoWaySpecs() {
  auto specs = AllKWaySpecs(Census().schema(), 2);
  EXPECT_TRUE(specs.ok()) << specs.status();
  return std::move(*specs);
}

struct SessionGolden {
  uint64_t seed;
  uint64_t answers;        // digest of the flattened released cells
  uint64_t epsilon_spent;  // raw bits
};

const SessionGolden kSessionGolden[] = {
    {11, 0xa974d0f1558becf6ull, 0x3fa9987f27c0d60aull},
    {12, 0xebb8dab443e99eceull, 0x3fa9969f1a4caa7bull},
    {13, 0x6afea5ce78d3e547ull, 0x3fa994b00c6cdd8full},
};

TEST(IReductGoldenTest, SessionReleaseOfAllTwoWayMarginals) {
  const std::vector<MarginalSpec> specs = TwoWaySpecs();
  ASSERT_EQ(specs.size(), 36u);
  for (const SessionGolden& g : kSessionGolden) {
    auto session = PrivateQuerySession::Create(&Census(), 1.0, g.seed);
    ASSERT_TRUE(session.ok()) << session.status();
    auto release = session->PublishMarginals(specs, MechanismSpec("ireduct"),
                                             kEpsilon, kDelta, kLambdaSteps);
    ASSERT_TRUE(release.ok()) << release.status();
    std::vector<double> answers;
    for (const Marginal& m : release->marginals) {
      answers.insert(answers.end(), m.counts().begin(), m.counts().end());
    }
    EXPECT_EQ(Hex(DigestBits(answers)), Hex(g.answers)) << "seed " << g.seed;
    EXPECT_EQ(Hex(Bits(release->epsilon_spent)), Hex(g.epsilon_spent))
        << "seed " << g.seed;
  }
}

struct RegistryGolden {
  const char* extra;  // appended to the base spec
  uint64_t seed;
  uint64_t answers;
  uint64_t scales;
  uint64_t epsilon_spent;
  size_t iterations;
  size_t resample_calls;
};

// The sequential path (the caller's generator) and the batched path (one
// forked substream per admitted group) each resample through NoiseDown.
const RegistryGolden kRegistryGolden[] = {
    {"", 11, 0xa974d0f1558becf6ull, 0xa0bb036b88b9a245ull,
     0x3fa9987f27c0d60aull, 276, 892694},
    {"", 12, 0xebb8dab443e99eceull, 0x2d51793e5db40cd7ull,
     0x3fa9969f1a4caa7bull, 279, 889625},
    {"", 13, 0x6afea5ce78d3e547ull, 0x24bd7b6da70a853full,
     0x3fa994b00c6cdd8full, 272, 895636},
    {",batch_size=4,num_threads=2", 11, 0xc84b61ed1f9dc66bull,
     0xf91ea554232205d5ull, 0x3fa99842a1a4ac22ull, 274, 895445},
    {",batch_size=4,num_threads=2", 12, 0x2960e524ef77a6b0ull,
     0x48061ce528dc2f58ull, 0x3fa993a30db6cdfbull, 279, 890821},
    {",batch_size=4,num_threads=2", 13, 0xb9532d65f8bf2ffaull,
     0xfbeddf2a8610f8beull, 0x3fa9966be3e610deull, 271, 893582},
};

TEST(IReductGoldenTest, RegistryRunPinsAnswersScalesAndSpend) {
  auto tables = ComputeMarginals(Census(), TwoWaySpecs());
  ASSERT_TRUE(tables.ok()) << tables.status();
  auto workload = MarginalWorkload::Create(std::move(*tables));
  ASSERT_TRUE(workload.ok()) << workload.status();
  // λmax as the session derives it, so the sequential rows release exactly
  // what the session test above releases.
  MechanismSpec base("ireduct");
  base.Set("epsilon", kEpsilon);
  base.Set("delta", kDelta);
  base.Set("lambda_max",
           std::fmax(static_cast<double>(kRows) / 10.0,
                     2 * workload->workload().Sensitivity() / kEpsilon));
  base.Set("lambda_steps", std::to_string(kLambdaSteps));
  for (const RegistryGolden& g : kRegistryGolden) {
    auto spec = MechanismSpec::Parse(base.ToString() + g.extra);
    ASSERT_TRUE(spec.ok()) << spec.status();
    BitGen gen(g.seed);
    auto out =
        MechanismRegistry::Global().Run(workload->workload(), *spec, gen);
    const std::string what = spec->ToString() + " @seed " +
                             std::to_string(g.seed);
    ASSERT_TRUE(out.ok()) << what << ": " << out.status();
    EXPECT_EQ(Hex(DigestBits(out->answers)), Hex(g.answers)) << what;
    EXPECT_EQ(Hex(DigestBits(out->group_scales)), Hex(g.scales)) << what;
    EXPECT_EQ(Hex(Bits(out->epsilon_spent)), Hex(g.epsilon_spent)) << what;
    EXPECT_EQ(out->iterations, g.iterations) << what;
    EXPECT_EQ(out->resample_calls, g.resample_calls) << what;
  }
}

TEST(IReductGoldenTest, PaperReducerChainWithNonUnitSensitivity) {
  // NoiseDownChain rescales a sensitivity-3 query to unit step
  // (NoiseDownWithStep); every refined answer is pinned.
  const uint64_t kExpected[] = {0x408010961af9e9b8ull, 0x408017e3c24de5c9ull,
                                0x4092bb889e09f1c6ull, 0x4093742f5778b04cull,
                                0x4093714f086725c4ull};
  auto acct = PrivacyAccountant::Create(10.0);
  ASSERT_TRUE(acct.ok());
  NoiseDownChainOptions options;
  options.sensitivity = 3.0;
  options.reducer = ChainReducer::kPaperNoiseDown;
  BitGen gen(2011);
  auto chain = NoiseDownChain::Start(1234.5, 400.0, options, *acct, gen);
  ASSERT_TRUE(chain.ok()) << chain.status();
  std::vector<uint64_t> got{Bits(chain->answer())};
  for (const double scale : {300.0, 200.0, 120.0, 80.0}) {
    ASSERT_TRUE(chain->Reduce(scale, gen).ok());
    got.push_back(Bits(chain->answer()));
  }
  ASSERT_EQ(got.size(), std::size(kExpected));
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(Hex(got[i]), Hex(kExpected[i])) << "step " << i;
  }
  EXPECT_EQ(Hex(Bits(chain->epsilon_spent())), Hex(0x3fa45a1cac083127ull));
}

}  // namespace
}  // namespace ireduct
