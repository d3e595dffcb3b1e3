// PrivateQuerySession: the library's front door for interactive use.
//
// Owns a dataset and a total ε budget, and answers ad-hoc requests until
// the budget runs out, charging a PrivacyAccountant for every release:
//
//   * CountQuery     — one conjunctive predicate count (Laplace or
//                      geometric noise at a caller-chosen ε slice);
//   * PublishMarginals — a batch of marginals through any of the batch
//                      mechanisms (iReduct by default);
//   * StartRefinableCount — a progressively refinable count backed by a
//                      NoiseDown chain, so an analyst can buy accuracy
//                      incrementally instead of up front.
//
// Everything returned is safe to publish; the session never exposes true
// answers. The batch mechanisms consume their slice via the accountant,
// so interleaving ad-hoc counts and marginal releases composes correctly
// (sequential composition, Proposition 3's argument).
#ifndef IREDUCT_SERVICE_PRIVATE_SESSION_H_
#define IREDUCT_SERVICE_PRIVATE_SESSION_H_

#include <memory>
#include <vector>

#include "algorithms/ireduct.h"
#include "algorithms/mechanism_registry.h"
#include "common/random.h"
#include "common/result.h"
#include "data/dataset.h"
#include "dp/ledger_journal.h"
#include "dp/noise_down_chain.h"
#include "dp/privacy_accountant.h"
#include "marginals/marginal.h"
#include "queries/predicate.h"

namespace ireduct {

/// Noise family for scalar counts.
enum class CountNoise {
  kLaplace,
  kGeometric,  // integer-valued output
};

/// A published set of marginals plus its cost.
struct MarginalRelease {
  std::vector<Marginal> marginals;
  double epsilon_spent = 0;
};

/// An interactive ε-budgeted view over one dataset.
class PrivateQuerySession {
 public:
  /// Creates a session over `dataset` (borrowed; must outlive the
  /// session) with the given total budget and RNG seed.
  static Result<PrivateQuerySession> Create(const Dataset* dataset,
                                            double epsilon_budget,
                                            uint64_t seed);

  /// Like Create, but crash-safe: a fresh write-ahead ledger journal is
  /// created at `journal_path` (CreateJournaledAccountant: missing parent
  /// directories are made, an existing file is refused with
  /// kFailedPrecondition) and every budget mutation is made durable there
  /// *before* it becomes visible in the session (see dp/ledger_journal.h).
  static Result<PrivateQuerySession> CreateWithJournal(
      const Dataset* dataset, double epsilon_budget, uint64_t seed,
      const std::string& journal_path);

  /// Reopens a journaled session after a crash. The journal at
  /// `journal_path` is recovered by ResumeJournaledAccountant — strict
  /// about corruption, conservative about a torn final record, which
  /// counts as spent — and the accountant resumes with the recovered
  /// ledger. The recovered spend may exceed the budget; such a session
  /// refuses all further charges. The generator is seeded from `seed` and
  /// the number of recovered grants, never with `seed` alone, so a resume
  /// never replays noise the session already released.
  static Result<PrivateQuerySession> ResumeWithJournal(
      const Dataset* dataset, uint64_t seed, const std::string& journal_path);

  /// The attached write-ahead journal, or nullptr for plain sessions.
  const LedgerJournal* journal() const { return journal_.get(); }

  double budget() const { return accountant_->budget(); }
  double spent() const { return accountant_->spent(); }
  double remaining() const { return accountant_->remaining(); }
  /// Labelled record of every charge so far.
  const std::vector<PrivacyCharge>& ledger() const {
    return accountant_->ledger();
  }

  /// Answers one predicate count with `epsilon` of the budget.
  Result<double> CountQuery(const ConjunctiveQuery& query, double epsilon,
                            CountNoise noise = CountNoise::kLaplace);

  /// Publishes the given marginals through iReduct with `epsilon` of the
  /// budget. `lambda_steps` controls the reduction resolution
  /// (λΔ = λmax/steps); `delta` is the sanity bound driving reallocation.
  Result<MarginalRelease> PublishMarginals(
      std::span<const MarginalSpec> specs, double epsilon, double delta,
      int lambda_steps = 200);

  /// Publishes the given marginals through any registered *private* batch
  /// mechanism. `mechanism` names the algorithm and may carry parameter
  /// overrides (e.g. "two_phase:epsilon1_fraction=0.1"); session-derived
  /// defaults — epsilon, delta, lambda_max (max(|T|/10, 2·S/ε)) and
  /// lambda_steps — are filled only for parameters the mechanism declares
  /// and the spec leaves unset, so explicit spec values always win. The
  /// accountant is charged the mechanism's actual epsilon_spent under the
  /// label "marginal release (<DisplayName>)". Non-private mechanisms
  /// (oracle, proportional) are refused with kInvalidArgument.
  Result<MarginalRelease> PublishMarginals(
      std::span<const MarginalSpec> specs, MechanismSpec mechanism,
      double epsilon, double delta, int lambda_steps = 200);

  /// PublishMarginals with the true tables already computed (e.g. by the
  /// query server's coalesced MarginalSetEvaluator pass). `tables` must be
  /// exactly what ComputeMarginals(dataset, specs) would return — the fused
  /// evaluator and the marginal cache both guarantee bit-identical tables —
  /// so the release (noise draws, ε charges, ledger labels) is bit-identical
  /// to the self-computing overloads at the same session state.
  Result<MarginalRelease> PublishMarginalsPrecomputed(
      std::vector<Marginal> tables, MechanismSpec mechanism, double epsilon,
      double delta, int lambda_steps = 200);

  /// Starts a refinable count at `initial_scale` noise; refine through the
  /// returned chain (each Reduce draws from this session's budget). The
  /// chain borrows this session's accountant, so the session must outlive
  /// it.
  Result<NoiseDownChain> StartRefinableCount(const ConjunctiveQuery& query,
                                             double initial_scale);

  /// The session's RNG — pass to NoiseDownChain::Reduce for reproducible
  /// refinement streams.
  BitGen& rng() { return gen_; }

 private:
  // A journaled accountant arrives already attached to `journal`.
  PrivateQuerySession(const Dataset* dataset,
                      std::unique_ptr<PrivacyAccountant> accountant,
                      uint64_t seed,
                      std::unique_ptr<LedgerJournal> journal = nullptr)
      : dataset_(dataset),
        accountant_(std::move(accountant)),
        journal_(std::move(journal)),
        gen_(seed) {}

  const Dataset* dataset_;
  std::unique_ptr<PrivacyAccountant> accountant_;
  std::unique_ptr<LedgerJournal> journal_;  // heap: survives session moves
  BitGen gen_;
};

}  // namespace ireduct

#endif  // IREDUCT_SERVICE_PRIVATE_SESSION_H_
