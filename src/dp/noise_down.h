// The NoiseDown resampling distribution (paper Section 4, the core of
// iReduct).
//
// Setting: Y = q(T) + Lap(λ) has already been published. We want a fresh,
// less-noisy estimate Y' that marginally follows q(T) + Lap(λ') with
// λ' < λ, *without* paying additional privacy budget for Y. Definition 5
// gives the conditional density of Y' given Y = y (Equation 6):
//
//   f_{μ,λ,λ'}(y' | y) ∝ (λ/λ') · exp(-|y'-μ|/λ') / exp(-|y-μ|/λ)
//                        · γ(λ', λ, y', y)
//   γ = 1/(4λ) · 1/(cosh(1/λ')-1)
//       · ( 2·cosh(1/λ')·e^{-|y-y'|/λ} - e^{-|y-y'-1|/λ} - e^{-|y-y'+1|/λ} )
//
// The key privacy property (Theorem 1(ii)) holds exactly and structurally:
// the joint density factors as
//   Lap(y; μ, λ) · f(y' | y) = Lap(y'; μ, λ') · γ(λ', λ, y', y) / Z
// with γ/Z independent of μ, so an adversary seeing the pair (Y, Y')
// learns no more than one seeing Y' alone, and the count-query privacy
// cost of the whole NoiseDown chain is 1/λ' up to O(1/λ'²).
//
// REPRODUCTION NOTES (verified analytically and numerically; see
// DESIGN.md):
//  * As printed, Equation 6's density does not integrate to 1 exactly — a
//    Fourier argument shows no smooth kernel in y-y' can make both
//    Theorem 1 claims exact (exactness needs an atom at y' = y; see
//    dp/laplace_coupling.h for that exact variant). We therefore implement
//    the *normalized* density f/Z with the normalizer Z in closed form.
//    The deficit |Z-1| is ≈ 0.03/λ' when the previous answer sits within
//    unit distance of the true answer (|y-μ| < 1) and O(1/λ'²) otherwise.
//    Consequences: (a) the pair (Y, Y') is (c/λ')-differentially private
//    with c ≤ ~1.06 rather than exactly 1; (b) the chain marginal deviates
//    from Lap(μ, λ') by O(1/λ'²) in Kolmogorov distance (the |y-μ| < 1
//    states have probability ~1/λ under the chain). At the paper's
//    operating scales (λ' = 10^4..10^6) both effects are invisible in
//    every experiment.
//  * Equation 9 (the mass θ2 of the segment (ξ, y-1]) as printed carries
//    an extra cosh(1/λ') factor that is inconsistent with Equation 6 (it
//    can exceed 1); we use the γ-consistent mass
//      θ2 = λ·(cosh(1/λ')-cosh(1/λ)) / (2(λ-λ')(cosh(1/λ')-1))
//           · (1 - e^{(1/λ'-1/λ)(ξ-y+1)}),
//    which matches the printed form with the spurious factor removed.
//
// Sampling (Figure 3): with μ ≤ y (the μ > y case is reduced by negating
// both), let ξ = min{μ, y-1}. The density is piecewise exponential on
// (-∞, ξ], (ξ, y-1] and [y+1, ∞) with closed-form masses θ1, θ2, θ3
// (Equations 8-10); on the middle interval (y-1, y+1) it is sampled by
// rejection under the constant envelope φ (Equation 11, Proposition 4).
//
// Everything is computed in numerically stable form: the experiments run
// at λ up to |T|/10 ≈ 10^6, where cosh(1/λ)-1 ≈ 5·10^-13 underflows to
// zero significant digits if evaluated naively.
//
// Group moves (iReduct, Figure 4 lines 11-12) resample every answer of a
// query group from the same λ to the same λ'. NoiseDownDistribution keeps
// every term that depends only on (λ, λ') in one value — the reciprocals,
// cosh(1/λ')-1, the segment-mass coefficients, the w ≥ 1 middle-mass
// bracket and the log offsets of the density and the envelope — and
// NoiseDownGroup builds it once per move. A cell with |y - μ| ≥ 1 then
// costs four exponentials plus its draws, and a rejection proposal only the
// terms that depend on the proposal. Each hoisted value is exactly an
// operand of the per-cell expression (same association, same libm call on
// the same argument), so NoiseDownGroup's draws, generator state and
// noise_down.* counter totals are bit-identical to calling NoiseDown cell
// by cell: both run the same sampler.
#ifndef IREDUCT_DP_NOISE_DOWN_H_
#define IREDUCT_DP_NOISE_DOWN_H_

#include <cstdint>
#include <span>

#include "common/random.h"
#include "common/result.h"

namespace ireduct {

/// The conditional distribution of the reduced-noise answer Y' given the
/// previous noisy answer Y = y (Definition 5), normalized exactly, with
/// full access to its density, segment masses and rejection envelope.
class NoiseDownDistribution {
 public:
  /// Parameters: `mu` is the true query answer q(T), `y` the previously
  /// published noisy answer, `lambda` its noise scale, and `lambda_prime`
  /// the reduced target scale. Requires 0 < lambda_prime < lambda.
  static Result<NoiseDownDistribution> Create(double mu, double y,
                                              double lambda,
                                              double lambda_prime);

  /// Normalized conditional density f(y' | Y = y).
  double Pdf(double y_prime) const;

  /// log of Pdf; -infinity where the density is zero.
  double LogPdf(double y_prime) const;

  /// Mass of the left tail (-∞, ξ] (Equation 8, normalized), in canonical
  /// (μ ≤ y) orientation.
  double theta1() const { return c_.theta1 / c_.normalization; }
  /// Mass of (ξ, y-1] (Equation 9 with the γ-consistent coefficient,
  /// normalized); zero when ξ = y-1.
  double theta2() const { return c_.theta2 / c_.normalization; }
  /// Mass of the right tail [y+1, ∞) (Equation 10, normalized).
  double theta3() const { return c_.theta3 / c_.normalization; }
  /// Mass of the central interval (y-1, y+1), in closed form.
  double middle_mass() const { return c_.middle / c_.normalization; }
  /// Total mass of the *unnormalized* Equation 6 density; equals
  /// 1 + O(1/λ'²) (see the reproduction notes above).
  double normalization() const { return c_.normalization; }
  /// Rejection envelope over the middle interval (Equation 11), for the
  /// unnormalized density (Proposition 4: raw f < φ there).
  double phi() const;
  /// ξ = min{μ, y-1} in canonical orientation.
  double xi() const { return c_.xi; }

  /// Draws one sample (Figure 3).
  double Sample(BitGen& gen) const;

  double mu() const;
  double y() const;
  double lambda() const { return k_.lambda; }
  double lambda_prime() const { return k_.lambda_prime; }

 private:
  friend Status NoiseDownGroup(std::span<const double>, std::span<double>,
                               double, double, BitGen&);

  // The terms that depend only on the scale move (λ, λ'), shared by every
  // cell the move resamples.
  struct Constants {
    double lambda = 0;
    double lambda_prime = 0;
    double a = 0;                   // 1/λ
    double ap = 0;                  // 1/λ'
    double c1 = 0;                  // cosh(1/λ') - 1
    double scaled_cd = 0;           // λ·(cosh(1/λ') - cosh(1/λ))
    double tail_denominator = 0;    // 2(λ'+λ)·c1 (Equations 8 and 10)
    double theta2_coefficient = 0;  // λ·cd / (2(λ-λ')·c1) (Equation 9)
    double two_cosh = 0;            // 2·cosh(1/λ')
    double ema = 0;                 // e^{-1/λ}
    double g_left = 0;  // middle-mass integral over d ∈ [-1, 0]
    double g_both = 0;  // ... plus the one over d ∈ [0, 1] (w ≥ 1 case)
    double middle_denominator = 0;  // 4λ'·c1
    double log_pdf_offset = 0;      // -log(4λ') - log(c1)
    double log_cd = 0;              // log(cosh(1/λ') - cosh(1/λ))
    double log_phi_offset = 0;  // -log(2λ') + log(c1 - expm1(-1/λ)) - log(c1)
    double tail_mean = 0;       // 1/(1/λ' + 1/λ)
    double segment_mean = 0;    // 1/(1/λ' - 1/λ)
  };

  // The per-cell terms, in canonical parameters satisfying mu <= y.
  struct Cell {
    double mu = 0;
    double y = 0;
    bool inverted = false;  // true when the caller's mu > y
    double xi = 0;
    double theta1 = 0;  // unnormalized segment masses
    double theta2 = 0;
    double theta3 = 0;
    double middle = 0;
    double normalization = 1;
    double log_phi = 0;
  };

  // noise_down.* counter increments, published once per Sample call or
  // once per NoiseDownGroup call.
  struct Tally {
    uint64_t samples = 0;
    uint64_t rejection_rounds = 0;
    uint64_t envelope_draws = 0;
    void Publish() const;
  };

  NoiseDownDistribution(const Constants& k, const Cell& c) : k_(k), c_(c) {}

  // Validates and precomputes the constants of the move λ → λ'.
  static Result<Constants> MakeConstants(double lambda, double lambda_prime);

  // The cell terms for caller-orientation (mu, y); inputs must be finite.
  static Cell MakeCell(const Constants& k, double mu, double y);

  // Closed-form mass of the unnormalized density over (y-1, y+1) for
  // w = y - μ ≥ 0.
  static double MiddleMass(const Constants& k, double w);

  // Log of the unnormalized Equation 6 density in canonical orientation
  // (inputs already negated if the cell is inverted).
  static double CanonicalLogPdf(const Constants& k, const Cell& c,
                                double y_prime);

  // Figure 3 for one cell; the one sampler behind Sample and
  // NoiseDownGroup.
  static double Draw(const Constants& k, const Cell& c, BitGen& gen,
                     Tally& tally);

  Constants k_;
  Cell c_;
};

/// The NoiseDown(μ, y, λ, λ') primitive of Figure 3: resamples a noisy
/// answer for a unit-sensitivity count query with true answer `mu`,
/// conditioned on the previous answer `y` at scale `lambda`, producing an
/// answer at the reduced scale `lambda_prime`.
Result<double> NoiseDown(double mu, double y, double lambda,
                         double lambda_prime, BitGen& gen);

/// NoiseDown for one group move: replaces each `answers[i]` by
/// NoiseDown(mu[i], answers[i], lambda, lambda_prime, gen), in index order,
/// computing the move's (λ, λ')-only terms once. Bit-identical to that
/// per-cell loop — same answers, same generator state, same totals of the
/// noise_down.{samples,rejection_rounds,envelope_draws} counters, which are
/// incremented once per call — and it fails where the loop would (first
/// non-finite cell, or invalid scales), with the cells before it already
/// resampled. Requires mu.size() == answers.size().
Status NoiseDownGroup(std::span<const double> mu, std::span<double> answers,
                      double lambda, double lambda_prime, BitGen& gen);

/// Extension for queries whose per-tuple sensitivity is `step` rather than
/// 1: rescales the problem to unit step, applies NoiseDown, and scales
/// back. Equivalent to running Figure 3 with the ±1 shifts replaced by
/// ±step. Requires step > 0.
Result<double> NoiseDownWithStep(double mu, double y, double lambda,
                                 double lambda_prime, double step,
                                 BitGen& gen);

}  // namespace ireduct

#endif  // IREDUCT_DP_NOISE_DOWN_H_
