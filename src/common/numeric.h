// Numerically stable kernels used by the NoiseDown distribution and the
// evaluation code, plus the exact number parser every text surface shares.
// The noise scales in the paper's experiments reach |T|/10 ≈ 10^6, so
// quantities like cosh(1/λ) - 1 ≈ 5e-13 must be computed without
// catastrophic cancellation.
#ifndef IREDUCT_COMMON_NUMERIC_H_
#define IREDUCT_COMMON_NUMERIC_H_

#include <charconv>
#include <cmath>
#include <cstddef>
#include <span>
#include <string_view>
#include <system_error>

namespace ireduct {

/// Parses all of `text` as a T with std::from_chars: no '+' prefix,
/// whitespace, hex or trailing text, no '-' for an unsigned T, and a value
/// outside T's range fails instead of saturating or wrapping.
template <typename T>
bool ParseExact(std::string_view text, T* out) {
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// cosh(x) - 1, accurate for small |x| (uses 2·sinh²(x/2)).
double CoshMinusOne(double x);

/// cosh(a) - cosh(b), accurate when a ≈ b or both are small.
/// Uses cosh(a) - cosh(b) = 2·sinh((a+b)/2)·sinh((a-b)/2).
double CoshDiff(double a, double b);

/// e^a - e^b computed as e^b · expm1(a - b); accurate when a ≈ b.
double ExpDiff(double a, double b);

/// log(e^a + e^b) without overflow.
double LogAddExp(double a, double b);

/// log(e^a - e^b) for a > b, without overflow; -inf if a <= b.
double LogSubExp(double a, double b);

/// Kahan-compensated accumulator for long sums of doubles.
class KahanSum {
 public:
  void Add(double x) {
    const double y = x - compensation_;
    const double t = sum_ + y;
    compensation_ = (t - sum_) - y;
    sum_ = t;
  }
  double value() const { return sum_; }

 private:
  double sum_ = 0;
  double compensation_ = 0;
};

/// Sum of a span with Kahan compensation.
double StableSum(std::span<const double> values);

/// Numerically integrates `f` over [lo, hi] with composite Simpson's rule
/// using `intervals` subintervals (rounded up to an even count).
template <typename F>
double SimpsonIntegrate(F&& f, double lo, double hi, int intervals) {
  if (intervals < 2) intervals = 2;
  if (intervals % 2 != 0) ++intervals;
  const double h = (hi - lo) / intervals;
  KahanSum acc;
  acc.Add(f(lo));
  acc.Add(f(hi));
  for (int i = 1; i < intervals; ++i) {
    const double w = (i % 2 == 0) ? 2.0 : 4.0;
    acc.Add(w * f(lo + i * h));
  }
  return acc.value() * h / 3.0;
}

}  // namespace ireduct

#endif  // IREDUCT_COMMON_NUMERIC_H_
