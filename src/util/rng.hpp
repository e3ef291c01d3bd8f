#pragma once

#include <array>
#include <cstdint>
#include <random>

namespace moloc::util {

/// Deterministic pseudo-random generator (xoshiro256**).
///
/// Every stochastic component of the library takes an explicit `Rng&`
/// instead of touching global state, so whole experiments replay
/// bit-identically from a single seed.  The engine satisfies the standard
/// UniformRandomBitGenerator requirements and therefore composes with
/// `<random>` distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state via SplitMix64, per the xoshiro authors'
  /// recommendation, so that nearby integer seeds yield unrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()();

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  int uniformInt(int lo, int hi);

  /// Uniform 64-bit index in [0, bound), unbiased (Lemire's
  /// multiply-and-reject method).  `bound` must be > 0 (throws
  /// std::invalid_argument).  Use this instead of uniformInt for
  /// counters that can exceed 2^31 — e.g. reservoir-sampling slot
  /// draws over long crowdsourcing streams.
  std::uint64_t uniformIndex(std::uint64_t bound);

  /// Normal deviate with the given mean and standard deviation
  /// (stddev >= 0; stddev == 0 returns `mean` and draws as any other).
  double normal(double mean, double stddev);

  /// Bernoulli trial with success probability `p` (clamped to [0, 1]).
  bool chance(double p);

  /// Spawns an independent child generator; used to hand subsystems their
  /// own streams so that adding draws in one does not perturb another.
  Rng split();

  /// The raw four-word engine state, so checkpoints can freeze a
  /// generator mid-stream and resume it bit-identically (a reseed
  /// would replay a different eviction sequence).  Every draw above is
  /// a pure function of this state, so state()/setState() round-trips
  /// exactly.
  std::array<std::uint64_t, 4> state() const;

  /// Restores a previously captured state.  The all-zero word vector
  /// is xoshiro's fixed point (the stream would be constant) and
  /// throws std::invalid_argument.
  void setState(const std::array<std::uint64_t, 4>& state);

 private:
  std::uint64_t state_[4];
};

}  // namespace moloc::util
