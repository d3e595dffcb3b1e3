#include "dp/noise_down.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/numeric.h"
#include "obs/metrics.h"

namespace ireduct {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Rejection sampling under a valid envelope terminates quickly; this cap
// only guards against a catastrophic numeric breakdown.
constexpr int kMaxRejectionRounds = 1 << 24;

Status NonFiniteCell() {
  return Status::InvalidArgument("NoiseDown requires finite mu and y");
}

// ∫_p^q e^{s·d} dd, stable for tiny |s| (and exact for s = 0).
double ExpIntegral(double s, double p, double q) {
  if (s == 0.0) return q - p;
  return std::exp(s * p) * std::expm1(s * (q - p)) / s;
}

// ∫ e^{s·d} g(d) dd over [p, q] with q <= 0 or p >= 0 (fixed sign of d),
// where g(d) = two_cosh·e^{-|d|/λ} - ema·(e^{d/λ} + e^{-d/λ}) and a = 1/λ
// (see MiddleMass).
double GIntegral(double a, double two_cosh, double ema, double s, double p,
                 double q) {
  const double abs_rate = (p >= 0) ? -a : a;  // e^{-|d|/λ} on this side
  return two_cosh * ExpIntegral(s + abs_rate, p, q) -
         ema * (ExpIntegral(s + a, p, q) + ExpIntegral(s - a, p, q));
}
}  // namespace

Result<NoiseDownDistribution::Constants> NoiseDownDistribution::MakeConstants(
    double lambda, double lambda_prime) {
  if (!(lambda_prime > 0) || !std::isfinite(lambda_prime) ||
      !(lambda > lambda_prime) || !std::isfinite(lambda)) {
    return Status::InvalidArgument(
        "NoiseDown requires 0 < lambda_prime < lambda");
  }
  Constants k;
  k.lambda = lambda;
  k.lambda_prime = lambda_prime;
  const double a = k.a = 1.0 / lambda;         // 1/λ
  const double ap = k.ap = 1.0 / lambda_prime;  // 1/λ'
  const double c1 = k.c1 = CoshMinusOne(ap);    // cosh(1/λ') - 1
  const double cd = CoshDiff(ap, a);  // cosh(1/λ') - cosh(1/λ) > 0

  // The segment masses (Equations 8-10) share λ·cd and their
  // denominators; see MakeCell for the per-cell factors.
  k.scaled_cd = lambda * cd;
  k.tail_denominator = 2.0 * (lambda_prime + lambda) * c1;
  k.theta2_coefficient = k.scaled_cd / (2.0 * (lambda - lambda_prime) * c1);

  // The middle mass integrates over d ∈ [-1, 0] for every w, and over
  // d ∈ [0, 1] at the same rate when w ≥ 1 (see MiddleMass).
  k.two_cosh = 2.0 * std::cosh(ap);
  k.ema = std::exp(-a);
  k.g_left = GIntegral(a, k.two_cosh, k.ema, ap, -1.0, 0.0);
  k.g_both = k.g_left + GIntegral(a, k.two_cosh, k.ema, ap, 0.0, 1.0);
  k.middle_denominator = 4.0 * lambda_prime * c1;

  k.log_pdf_offset = -std::log(4.0 * lambda_prime) - std::log(c1);
  k.log_cd = std::log(cd);
  k.log_phi_offset = -std::log(2.0 * lambda_prime) +
                     std::log(c1 - std::expm1(-a)) - std::log(c1);
  k.tail_mean = 1.0 / (ap + a);
  k.segment_mean = 1.0 / (ap - a);
  return k;
}

Result<NoiseDownDistribution> NoiseDownDistribution::Create(
    double mu, double y, double lambda, double lambda_prime) {
  if (!std::isfinite(mu) || !std::isfinite(y)) return NonFiniteCell();
  IREDUCT_ASSIGN_OR_RETURN(const Constants k,
                           MakeConstants(lambda, lambda_prime));
  return NoiseDownDistribution(k, MakeCell(k, mu, y));
}

NoiseDownDistribution::Cell NoiseDownDistribution::MakeCell(
    const Constants& k, double mu, double y) {
  Cell c;
  // Figure 3, lines 1-3: reduce the mu > y case to mu <= y by negating both
  // coordinates (f_{mu}(y'|y) = f_{-mu}(-y'|-y)).
  c.inverted = mu > y;
  c.mu = c.inverted ? -mu : mu;
  c.y = c.inverted ? -y : y;
  c.xi = std::fmin(c.mu, c.y - 1);

  const double a = k.a;
  const double ap = k.ap;
  // Equation 8: mass of (-∞, ξ].
  c.theta1 = k.scaled_cd * std::exp((ap + a) * (c.xi - c.mu)) /
             k.tail_denominator;
  // Equation 9 with the γ-consistent coefficient (the printed equation
  // carries a spurious cosh(1/λ'); see the header notes): mass of
  // (ξ, y-1]. The trailing factor vanishes exactly when ξ = y-1.
  c.theta2 = k.theta2_coefficient *
             (-std::expm1((ap - a) * (c.xi - c.y + 1)));
  // Equation 10: mass of [y+1, ∞).
  c.theta3 = k.scaled_cd *
             std::exp((c.mu - c.y - 1) * ap - (c.mu - c.y + 1) * a) /
             k.tail_denominator;
  c.middle = MiddleMass(k, c.y - c.mu);
  c.normalization = c.theta1 + c.theta2 + c.theta3 + c.middle;
  IREDUCT_DCHECK(c.normalization > 0);

  // Equation 11 envelope over (y-1, y+1), in log form:
  //   φ = 1/(2λ') · (cosh(1/λ') - e^{-1/λ}) / (cosh(1/λ') - 1)
  //       · exp((y-μ)/λ - max{0, y-μ-1}/λ')
  // with cosh(1/λ') - e^{-1/λ} = (cosh(1/λ') - 1) + (1 - e^{-1/λ}).
  c.log_phi = k.log_phi_offset + (c.y - c.mu) * a -
              std::fmax(0.0, c.y - c.mu - 1) * ap;
  return c;
}

double NoiseDownDistribution::MiddleMass(const Constants& k, double w) {
  // Mass of the unnormalized Equation 6 density over (y-1, y+1), in
  // canonical orientation. Substituting d = y - y' ∈ (-1, 1) and writing
  // w = y - μ ≥ 0:
  //   f = K · e^{-|w-d|/λ'} · g(d),
  //   g(d) = 2·cosh(1/λ')·e^{-|d|/λ} - e^{-1/λ}·(e^{d/λ} + e^{-d/λ}),
  //   K = e^{w/λ} / (4·λ'·(cosh(1/λ')-1)) · ... (assembled below).
  // Each |·| resolves on fixed subintervals, so every piece is an
  // elementary exponential integral (GIntegral).
  const double a = k.a;
  const double ap = k.ap;

  // The e^{w/λ} prefactor of Equation 6 is folded into the per-zone
  // weights so that w·(1/λ' - 1/λ) never overflows separately (the
  // combined exponents are all bounded above by w·(1/λ - 1/λ') <= 0 plus
  // an O(1/λ') term).
  double total;
  if (w >= 1.0) {
    // w - d > 0 throughout: weight e^{-(w-d)/λ'} = e^{-w/λ'} e^{d/λ'}.
    total = std::exp(w * (a - ap)) * k.g_both;
  } else {
    // Split at d = w where |w - d| flips (w ∈ [0, 1)).
    total = std::exp(w * (a - ap)) * k.g_left;
    if (w > 0) {
      total += std::exp(w * (a - ap)) *
               GIntegral(a, k.two_cosh, k.ema, ap, 0.0, w);
    }
    total += std::exp(w * (a + ap)) *
             GIntegral(a, k.two_cosh, k.ema, -ap, w, 1.0);
  }
  // Remaining prefactor of Equation 6: (λ/λ')·(1/(4λ))·(1/c1).
  return total / k.middle_denominator;
}

double NoiseDownDistribution::mu() const {
  return c_.inverted ? -c_.mu : c_.mu;
}
double NoiseDownDistribution::y() const { return c_.inverted ? -c_.y : c_.y; }

double NoiseDownDistribution::phi() const { return std::exp(c_.log_phi); }

double NoiseDownDistribution::CanonicalLogPdf(const Constants& k,
                                              const Cell& c,
                                              double y_prime) {
  const double a = k.a;
  const double ap = k.ap;
  const double ad = std::fabs(c.y - y_prime);

  // log of the bracketed term of γ (Equation 7):
  //   2·cosh(1/λ')·e^{-|d|/λ} - e^{-|d-1|/λ} - e^{-|d+1|/λ},  d = y - y'.
  double log_term;
  if (ad >= 1) {
    // Simplifies to 2·e^{-|d|/λ}·(cosh(1/λ') - cosh(1/λ)).
    log_term = std::log(2.0) - ad * a + k.log_cd;
  } else {
    // Equals 2·e^{-|d|/λ}·B with
    //   B = (cosh(1/λ')-1) - e^{(|d|-1)/λ}·(cosh(d/λ)-1) - expm1((|d|-1)/λ),
    // every addend individually small-argument safe and B > 0.
    const double bracket = k.c1 -
                           std::exp((ad - 1) * a) * CoshMinusOne(ad * a) -
                           std::expm1((ad - 1) * a);
    if (!(bracket > 0)) return -kInf;
    log_term = std::log(2.0) - ad * a + std::log(bracket);
  }

  // Equation 6 without γ's constant, assembled in log space. The λ/λ' and
  // 1/(4λ) prefactors combine to 1/(4·λ').
  return k.log_pdf_offset - std::fabs(y_prime - c.mu) * ap +
         std::fabs(c.y - c.mu) * a + log_term;
}

double NoiseDownDistribution::LogPdf(double y_prime) const {
  return CanonicalLogPdf(k_, c_, c_.inverted ? -y_prime : y_prime) -
         std::log(c_.normalization);
}

double NoiseDownDistribution::Pdf(double y_prime) const {
  return std::exp(LogPdf(y_prime));
}

void NoiseDownDistribution::Tally::Publish() const {
  if (samples > 0) IREDUCT_METRIC_COUNT("noise_down.samples", samples);
  // Only middle-interval draws touch the rejection counters; a tally with
  // none leaves them as untouched as the per-draw path would.
  if (envelope_draws > 0) {
    IREDUCT_METRIC_COUNT("noise_down.rejection_rounds", rejection_rounds);
    IREDUCT_METRIC_COUNT("noise_down.envelope_draws", envelope_draws);
  }
}

double NoiseDownDistribution::Draw(const Constants& k, const Cell& c,
                                   BitGen& gen, Tally& tally) {
  ++tally.samples;
  // Branch thresholds are the exact normalized segment masses.
  const double t1 = c.theta1 / c.normalization;
  const double t2 = c.theta2 / c.normalization;
  const double t3 = c.theta3 / c.normalization;
  const double u = gen.Uniform();

  double yp;
  if (u < t1) {
    // Left tail (-∞, ξ]: density ∝ exp(y'·(1/λ' + 1/λ)).
    yp = c.xi - gen.Exponential(k.tail_mean);
  } else if (u < t1 + t2) {
    // Middle-left (ξ, y-1]: density ∝ exp(-y'·(1/λ' - 1/λ)).
    const double width = (c.y - 1) - c.xi;
    IREDUCT_DCHECK(width > 0);
    yp = c.xi + gen.TruncatedExponential(k.segment_mean, 0.0, width);
  } else if (u > 1.0 - t3) {
    // Right tail [y+1, ∞): density ∝ exp(-y'·(1/λ' + 1/λ)).
    yp = c.y + 1 + gen.Exponential(k.tail_mean);
  } else {
    // Central interval (y-1, y+1): rejection under the constant envelope φ
    // (Proposition 4 guarantees raw f < φ there).
    int rounds = 0;
    for (;;) {
      yp = gen.Uniform(c.y - 1, c.y + 1);
      const double log_accept = CanonicalLogPdf(k, c, yp) - c.log_phi;
      if (std::log(gen.UniformPositive()) <= log_accept) break;
      IREDUCT_CHECK(++rounds < kMaxRejectionRounds);
    }
    // `rounds` counts only the rejected proposals; the accepted draw makes
    // it rounds + 1 envelope evaluations for this sample.
    tally.rejection_rounds += static_cast<uint64_t>(rounds);
    tally.envelope_draws += static_cast<uint64_t>(rounds) + 1;
  }
  return c.inverted ? -yp : yp;
}

double NoiseDownDistribution::Sample(BitGen& gen) const {
  Tally tally;
  const double yp = Draw(k_, c_, gen, tally);
  tally.Publish();
  return yp;
}

Result<double> NoiseDown(double mu, double y, double lambda,
                         double lambda_prime, BitGen& gen) {
  IREDUCT_ASSIGN_OR_RETURN(
      NoiseDownDistribution dist,
      NoiseDownDistribution::Create(mu, y, lambda, lambda_prime));
  return dist.Sample(gen);
}

Status NoiseDownGroup(std::span<const double> mu, std::span<double> answers,
                      double lambda, double lambda_prime, BitGen& gen) {
  using Dist = NoiseDownDistribution;
  if (mu.size() != answers.size()) {
    return Status::InvalidArgument(
        "NoiseDownGroup requires one true answer per noisy answer");
  }
  const Result<Dist::Constants> k = Dist::MakeConstants(lambda, lambda_prime);
  Dist::Tally tally;
  Status status;
  for (size_t i = 0; i < mu.size(); ++i) {
    // The per-cell order of checks: the cell's values, then the scales.
    if (!std::isfinite(mu[i]) || !std::isfinite(answers[i])) {
      status = NonFiniteCell();
      break;
    }
    if (!k.ok()) {
      status = k.status();
      break;
    }
    answers[i] = Dist::Draw(*k, Dist::MakeCell(*k, mu[i], answers[i]), gen,
                            tally);
  }
  tally.Publish();
  return status;
}

Result<double> NoiseDownWithStep(double mu, double y, double lambda,
                                 double lambda_prime, double step,
                                 BitGen& gen) {
  if (!(step > 0) || !std::isfinite(step)) {
    return Status::InvalidArgument("NoiseDown step must be positive finite");
  }
  // Rescale to unit step: x -> x/step maps Laplace(μ, λ) to
  // Laplace(μ/step, λ/step) and a ±step sensitivity to ±1.
  IREDUCT_ASSIGN_OR_RETURN(
      double scaled,
      NoiseDown(mu / step, y / step, lambda / step, lambda_prime / step, gen));
  return scaled * step;
}

}  // namespace ireduct
