#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace laps {

/// Parameters of the per-service traffic-rate model, paper Eq. 1:
///
///   x_i(t) = a + b*t + C*S(t % m) + n(sigma)
///
/// with `a` the baseline rate (Mpps), `b` the linear trend (Mpps/s), `C` the
/// magnitude of the seasonal component `S` with period `m` seconds, and
/// n(sigma) Gaussian noise. This is the Holt-Winters-style decomposition the
/// paper takes from Brutlag (LISA'00).
struct HoltWintersParams {
  double a = 1.0;      ///< baseline, Mpps
  double b = 0.0;      ///< trend, Mpps per second
  double c = 0.0;      ///< seasonal magnitude, Mpps
  double m = 60.0;     ///< seasonal period, seconds
  double sigma = 0.0;  ///< noise standard deviation, Mpps
};

/// The two parameter sets of paper Table IV (rates in Mpps, periods in
/// seconds). Set 1 = under-load, Set 2 = overload for a 16-core system.
/// Index: [service 0..3] = S1..S4. The paper's `b` entries "025"/"02" are
/// read as 0.025/0.02 (see DESIGN.md interpretation notes).
std::vector<HoltWintersParams> table4_params(int set);

/// Deterministic evaluation of Eq. 1.
///
/// The seasonal shape S is a unit sine (the paper does not specify S; any
/// smooth periodic shape exercises the same scheduler behaviour). The noise
/// term is piecewise-constant over `noise_interval` seconds and derived
/// purely from (seed, interval index), so x(t) is a *pure function* of t —
/// two components evaluating the same curve always agree, and replays are
/// exact.
class HoltWintersRate {
 public:
  HoltWintersRate(HoltWintersParams params, std::uint64_t seed,
                  double noise_interval = 0.1);

  /// Rate at time t (seconds), clamped below at `floor_mpps`. Mpps.
  double rate_mpps(double t) const {
    return rate_with_noise(t, interval_noise(noise_interval_of(t)));
  }

  /// Index of the noise interval holding t (t / noise_interval, truncated).
  std::uint64_t noise_interval_of(double t) const {
    return static_cast<std::uint64_t>(t / noise_interval_);
  }

  /// The noise term n(sigma) over interval `index`; 0 when sigma == 0.
  double interval_noise(std::uint64_t index) const;

  /// rate_mpps(t) given the noise of t's interval: mean + noise, clamped.
  double rate_with_noise(double t, double noise) const {
    const double r = mean_rate_mpps(t) + noise;
    return r > floor_mpps ? r : floor_mpps;
  }

  /// Rate without the noise term — used for capacity calibration.
  double mean_rate_mpps(double t) const;

  /// Supremum of rate over [0, horizon] (mean + 4 sigma); an upper bound
  /// usable by Poisson thinning.
  double rate_bound_mpps(double horizon) const;

  const HoltWintersParams& params() const { return params_; }

  /// Minimum emitted rate (default 0.01 Mpps) so the arrival process never
  /// stalls completely.
  static constexpr double floor_mpps = 0.01;

 private:
  HoltWintersParams params_;
  std::uint64_t seed_;
  double noise_interval_;
};

/// One curve evaluated by a Poisson-thinning loop, which asks for ~1.8
/// rates per accepted arrival while a 0.1 s noise interval spans ~10^5 of
/// them: the noise of the last interval seen is kept, so the Gaussian draw
/// runs once per interval instead of once per candidate. rate_mpps(t)
/// equals HoltWintersRate::rate_mpps(t) bit for bit, for any order of t.
class MemoizedRate {
 public:
  explicit MemoizedRate(const HoltWintersRate& curve)
      : curve_(curve), noise_(curve.interval_noise(0)) {}

  double rate_mpps(double t) {
    const std::uint64_t interval = curve_.noise_interval_of(t);
    if (interval != interval_) {
      interval_ = interval;
      noise_ = curve_.interval_noise(interval);
    }
    return curve_.rate_with_noise(t, noise_);
  }

  const HoltWintersRate& curve() const { return curve_; }

 private:
  HoltWintersRate curve_;
  std::uint64_t interval_ = 0;
  double noise_;
};

}  // namespace laps
