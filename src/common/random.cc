#include "common/random.h"

#include <bit>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace ireduct {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

BitGen::BitGen(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(sm);
  // A zero state would lock the generator at zero; splitmix64 cannot emit
  // four zero words in a row, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t BitGen::operator()() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double BitGen::Uniform() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double BitGen::UniformPositive() {
  return static_cast<double>(((*this)() >> 11) + 1) * 0x1.0p-53;
}

double BitGen::Uniform(double lo, double hi) {
  IREDUCT_DCHECK(lo <= hi);
  return lo + (hi - lo) * Uniform();
}

uint64_t BitGen::UniformInt(uint64_t n) {
  IREDUCT_DCHECK(n > 0);
  // Rejection to avoid modulo bias.
  const uint64_t threshold = (~uint64_t{0} - n + 1) % n;
  for (;;) {
    const uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

double BitGen::Exponential(double mean) {
  IREDUCT_DCHECK(mean > 0);
  return -mean * std::log(UniformPositive());
}

double BitGen::Laplace(double scale) {
  IREDUCT_DCHECK(scale > 0);
  // Inverse-CDF: u in (-1/2, 1/2], x = -scale * sgn(u) * ln(1 - 2|u|).
  const double u = Uniform() - 0.5;
  const double sign = (u >= 0) ? 1.0 : -1.0;
  double mag = 2.0 * std::fabs(u);
  // log1p for accuracy near 0; avoid log(0) at the extreme.
  if (mag >= 1.0) mag = std::nextafter(1.0, 0.0);
  return -scale * sign * std::log1p(-mag);
}

double BitGen::Laplace(double mu, double scale) { return mu + Laplace(scale); }

double BitGen::TruncatedExponential(double mean, double lo, double hi) {
  IREDUCT_DCHECK(mean > 0);
  IREDUCT_DCHECK(lo < hi);
  if (std::isinf(hi)) {
    return lo + Exponential(mean);
  }
  // Inverse-CDF on [lo, hi]: F(x) = (1 - e^{-(x-lo)/mean}) / (1 - e^{-w/mean})
  // with w = hi - lo.  x = lo - mean * log1p(u * expm1(-w/mean)).
  const double w = hi - lo;
  const double u = Uniform();
  const double x = lo - mean * std::log1p(u * std::expm1(-w / mean));
  // Clamp against round-off at the boundaries.
  return std::fmin(std::fmax(x, lo), hi);
}

std::array<uint64_t, 4> BitGen::SaveState() const {
  return {s_[0], s_[1], s_[2], s_[3]};
}

BitGen BitGen::FromState(const std::array<uint64_t, 4>& state) {
  BitGen gen;
  for (int i = 0; i < 4; ++i) gen.s_[i] = state[i];
  // Preserve the all-zero guard of the seeding path.
  if ((gen.s_[0] | gen.s_[1] | gen.s_[2] | gen.s_[3]) == 0) gen.s_[0] = 1;
  return gen;
}

BitGen BitGen::Fork() { return BitGen((*this)()); }

namespace {

// log(x) for x in [2^-53, 1]: Cephes log.c evaluated with plain +, -, *, /
// in a fixed order and no libm call (the baseline x86-64 target has no FMA
// to contract them into), so the batch stream is the same bits on every
// machine. Relative error is ~2e-17 over the reduced argument
// range. Constants are the published Cephes double-precision set.
double CephesLog(double x) {
  const uint64_t bits = std::bit_cast<uint64_t>(x);
  // Exponent as a double via the 2^52 magic-number trick (values < 2^52
  // convert exactly); x is normal and positive here.
  const double ebits =
      std::bit_cast<double>((bits >> 52) | 0x4330000000000000ULL);
  double e = (ebits - 0x1.0p52) - 1023.0;
  // Mantissa remapped to [1, 2), folded down past sqrt(2) so z = m - 1
  // stays in [-0.2929, 0.4142].
  double m = std::bit_cast<double>((bits & 0x000FFFFFFFFFFFFFULL) |
                                   0x3FF0000000000000ULL);
  if (m > 1.41421356237309504880) {
    m = m * 0.5;
    e = e + 1.0;
  }
  const double z = m - 1.0;
  const double z2 = z * z;

  double p = 1.01875663804580931796e-4;
  p = p * z + 4.97494994976747001425e-1;
  p = p * z + 4.70579119878881725854e0;
  p = p * z + 1.44989225341610930846e1;
  p = p * z + 1.79368678507819816313e1;
  p = p * z + 7.70838733755885391666e0;

  double q = z + 1.12873587189167450590e1;
  q = q * z + 4.52279145837532221105e1;
  q = q * z + 8.29875266912776603211e1;
  q = q * z + 7.11544750618563894466e1;
  q = q * z + 2.31251620126765340583e1;

  double y = z * ((z2 * p) / q);
  y = y - e * 2.121944400546905827679e-4;
  y = y - 0.5 * z2;
  const double r = z + y;
  return r + e * 0.693359375;
}

// Laplace(scale) from one raw draw by the inverse CDF on a 52-bit uniform:
//   u   = [0, 1) from the top mantissa bits
//   t   = 2u - 1 in [-1, 1), sign of t = side of the distribution
//   om  = 1 - |t|, exact (both operands are k*2^-51), clamped away from 0
//   out = -scale * sgn(t) * log(om)
double LaplaceFromBits(uint64_t x, double scale) {
  const double u =
      std::bit_cast<double>((x >> 12) | 0x3FF0000000000000ULL) - 1.0;
  const double t = (u + u) - 1.0;
  const double mag =
      std::bit_cast<double>(std::bit_cast<uint64_t>(t) & 0x7FFFFFFFFFFFFFFFULL);
  double om = 1.0 - mag;
  om = om > 0x1.0p-53 ? om : 0x1.0p-53;
  // -sgn(t): log(om) <= 0, so t >= 0 must flip the sign back to positive.
  const double sgn = 0.0 > t ? 1.0 : -1.0;
  return (sgn * scale) * CephesLog(om);
}

}  // namespace

void BitGen::LaplaceBatch(std::span<const double> scales,
                          std::span<double> out) {
  IREDUCT_DCHECK(scales.size() == out.size());
  if (out.empty()) return;
  // Four substreams forked in lane order (braced initializers run left to
  // right): exactly four parent draws, whatever the batch size.
  BitGen lanes[4] = {Fork(), Fork(), Fork(), Fork()};
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = LaplaceFromBits(lanes[i % 4](), scales[i]);
  }
}

bool BitGen::Bernoulli(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return Uniform() < p;
}

}  // namespace ireduct
