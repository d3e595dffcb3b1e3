// Deterministic mutation checks for every JSON reader that takes bytes from
// outside the process: wire request lines, a sealed checkpoint and a ledger
// journal. Each seed input is mutated with fixed-seed bit flips,
// truncations, splices and dictionary tokens. A mutant must be refused
// with a Status or yield a value inside its reader's domain; it must never
// crash (the asan-ubsan preset runs this too).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "dp/checkpoint.h"
#include "dp/ledger_journal.h"
#include "service/wire.h"

namespace ireduct {
namespace {

// Fragments that steer mutants into the parser's edge cases: structure,
// escapes, surrogates, numbers beyond a double or a uint64_t, and
// repeated keys.
constexpr const char* kDictionary[] = {
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "\\ud800", "\\u0074",
    "\\n", "0", "-", ".", "e", "1e999", "-1e999", "1e-999", "1.0", "+1",
    "18446744073709551616", "null", "true", "\"id\":2,", "\"epsilon\":",
    "\"seq\":", "[[[[[[[[", "]]]]]]]]"};

// One mutant of `input`: one to three bit flips, truncations, splices of a
// span from `donor`, or dictionary insertions.
std::string Mutate(const std::string& input, const std::string& donor,
                   BitGen* gen) {
  std::string out = input;
  const uint64_t edits = 1 + gen->UniformInt(3);
  for (uint64_t e = 0; e < edits; ++e) {
    const size_t at = gen->UniformInt(out.size() + 1);
    switch (gen->UniformInt(4)) {
      case 0:
        if (at < out.size()) {
          out[at] = static_cast<char>(out[at] ^ (1 << gen->UniformInt(8)));
        }
        break;
      case 1:
        out.resize(at);
        break;
      case 2: {
        const size_t from = gen->UniformInt(donor.size());
        const size_t len = gen->UniformInt(donor.size() - from) + 1;
        const size_t cut = gen->UniformInt(out.size() - at + 1);
        out.replace(at, cut, donor, from, len);
        break;
      }
      default:
        out.insert(at, kDictionary[gen->UniformInt(std::size(kDictionary))]);
    }
  }
  return out;
}

// The request lines wire_test builds.
std::vector<std::string> RequestLines() {
  std::vector<WireRequest> requests(7);
  requests[0].id = 7;
  requests[0].op = "open";
  requests[0].tenant = "alice";
  requests[0].dataset = "census";
  requests[0].budget = 1.5;
  requests[0].seed = 42;
  requests[1].id = 2;
  requests[1].op = "marginals";
  requests[1].tenant = "t";
  requests[1].specs = {MarginalSpec{{0, 1}}, MarginalSpec{{2}}};
  requests[1].mechanism = "two_phase:epsilon1_fraction=0.1";
  requests[1].epsilon = 0.5;
  requests[1].delta = 0.05;
  requests[1].lambda_steps = 128;
  requests[2].id = 3;
  requests[2].op = "count";
  requests[2].tenant = "t";
  requests[2].query = ConjunctiveQuery{{{0, 3}, {1, 1}}};
  requests[2].epsilon = 0.1;
  requests[3].id = 9;
  requests[3].op = "ping";
  requests[4].id = 9;
  requests[4].op = "stats";
  requests[5].id = 10;
  requests[5].op = "budget";
  requests[5].tenant = "t";
  requests[6].id = UINT64_MAX;
  requests[6].op = "resume";
  requests[6].tenant = "t";
  requests[6].dataset = "d";
  requests[6].seed = UINT64_MAX;
  std::vector<std::string> lines;
  for (const WireRequest& r : requests) lines.push_back(r.ToJson());
  return lines;
}

// A request mutant is refused, or parses to a request whose encoding is a
// fixed point of Parse + ToJson.
TEST(ParserMutationTest, WireRequestsAreRefusedOrRoundTrip) {
  const std::vector<std::string> lines = RequestLines();
  BitGen gen(20240611);
  size_t accepted = 0;
  for (size_t i = 0; i < 100000; ++i) {
    const std::string& seed = lines[i % lines.size()];
    const std::string mutant =
        Mutate(seed, lines[gen.UniformInt(lines.size())], &gen);
    auto parsed = WireRequest::Parse(mutant);
    if (!parsed.ok()) {
      ASSERT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << mutant;
      continue;
    }
    ++accepted;
    const std::string encoded = parsed->ToJson();
    auto again = WireRequest::Parse(encoded);
    ASSERT_TRUE(again.ok()) << mutant << " -> " << encoded << ": "
                            << again.status();
    ASSERT_EQ(again->ToJson(), encoded) << mutant;
  }
  // The loop reaches past the parser's front door.
  EXPECT_GT(accepted, 1000u);
}

TEST(ParserMutationTest, WireResponsesAreRefusedOrRoundTrip) {
  WireResponse ok;
  ok.id = 12;
  ok.ok = true;
  ok.result_json = R"({"value":3.5,"tags":["a","b"],"nested":{"n":1}})";
  WireResponse shed;
  shed.id = 13;
  shed.code = "Resource exhausted";
  shed.message = "admission rejected (queue_full); retry after 50ms";
  shed.retry_after_ms = 50;
  const std::vector<std::string> lines = {ok.ToJson(), shed.ToJson()};
  BitGen gen(7);
  for (size_t i = 0; i < 20000; ++i) {
    const std::string mutant =
        Mutate(lines[i % 2], lines[gen.UniformInt(2)], &gen);
    auto parsed = WireResponse::Parse(mutant);
    if (!parsed.ok()) continue;
    const std::string encoded = parsed->ToJson();
    auto again = WireResponse::Parse(encoded);
    ASSERT_TRUE(again.ok()) << mutant << " -> " << encoded;
    ASSERT_EQ(again->ToJson(), encoded) << mutant;
  }
}

RunCheckpoint SeedCheckpoint() {
  RunCheckpoint c;
  c.algorithm = "iresamp";
  c.workload_fingerprint = 0x9e3779b97f4a7c15ull;
  c.round = 12;
  c.iterations = 96;
  c.resample_calls = 3;
  c.epsilon_spent = 0.30000000000000004;
  c.rng_state = {0xdeadbeefcafef00dull, 1, 0xffffffffffffffffull, 42};
  c.gs.value = 0.1234567890123456789;
  c.gs.compensation = -4.440892098500626e-16;
  c.gs.commits_since_resync = 7;
  c.answers = {101.5, 198.25, 301.0078125};
  c.group_scales = {12.5, 17.75};
  c.active = {1, 0};
  c.nominal_scales = {25.0, 35.5};
  c.weighted_sum = {0.125, -3.75, 2.0};
  c.weight = {0.0064, 0.0064, 0.0032};
  return c;
}

// Mutants of the sealed record mostly fail the CRC; mutants of the body,
// sealed afresh, reach the parser. Either way the result is a Status
// (kIoError) or a checkpoint that serializes to a fixed point.
TEST(ParserMutationTest, CheckpointsAreRefusedOrRoundTrip) {
  const std::string sealed = SerializeCheckpoint(SeedCheckpoint());
  std::string body;
  ASSERT_TRUE(UnsealJsonRecord(sealed, &body));
  BitGen gen(99);
  size_t accepted = 0;
  for (size_t i = 0; i < 30000; ++i) {
    std::string mutant = Mutate(i % 3 == 0 ? sealed : body, sealed, &gen);
    if (i % 3 != 0 && !mutant.empty()) mutant = SealJsonRecord(mutant);
    auto parsed = ParseCheckpoint(mutant);
    if (!parsed.ok()) {
      ASSERT_EQ(parsed.status().code(), StatusCode::kIoError) << mutant;
      continue;
    }
    ++accepted;
    const std::string encoded = SerializeCheckpoint(*parsed);
    auto again = ParseCheckpoint(encoded);
    ASSERT_TRUE(again.ok()) << mutant << " -> " << encoded << ": "
                            << again.status();
    ASSERT_EQ(SerializeCheckpoint(*again), encoded) << mutant;
  }
  EXPECT_GT(accepted, 250u);
}

// A journal mutant either refuses to recover (kIoError) or recovers a
// positive finite budget and positive finite charges.
TEST(ParserMutationTest, JournalsAreRefusedOrRecoverValidCharges) {
  const std::string path =
      testing::TempDir() + "/ireduct_mutation_journal.wal";
  std::string journal;
  {
    auto created = LedgerJournal::Create(path, 1.0);
    ASSERT_TRUE(created.ok()) << created.status();
    ASSERT_TRUE(created->AppendGrant("count", 0.125).ok());
    ASSERT_TRUE(created->AppendGrant("marginal release", 0.25).ok());
    std::ifstream in(path, std::ios::binary);
    journal.assign(std::istreambuf_iterator<char>(in), {});
  }
  BitGen gen(5);
  for (size_t i = 0; i < 3000; ++i) {
    std::string mutant = Mutate(journal, journal, &gen);
    if (i % 2 == 1) {
      // Re-seal every complete line so the mutant reaches the parser.
      std::string resealed, line;
      for (const char c : mutant) {
        if (c != '\n') {
          line += c;
          continue;
        }
        const size_t crc = line.rfind(",\"crc\":\"");
        resealed += crc == std::string::npos
                        ? line
                        : SealJsonRecord(line.substr(0, crc) + "}");
        resealed += '\n';
        line.clear();
      }
      mutant = resealed + line;
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << mutant;
    }
    auto recovered = LedgerJournal::Recover(path);
    if (!recovered.ok()) {
      ASSERT_EQ(recovered.status().code(), StatusCode::kIoError) << mutant;
      continue;
    }
    ASSERT_TRUE(recovered->budget > 0 && std::isfinite(recovered->budget))
        << mutant;
    for (const PrivacyCharge& charge : recovered->charges) {
      ASSERT_TRUE(charge.epsilon > 0 && std::isfinite(charge.epsilon))
          << mutant;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ireduct
