#include "util/rng.hpp"

#include <stdexcept>

namespace moloc::util {

namespace {

std::uint64_t splitMix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitMix64(sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform(double lo, double hi) {
  // 53-bit mantissa construction gives a uniform double in [0, 1).
  const double unit = static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  return lo + unit * (hi - lo);
}

int Rng::uniformInt(int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(*this);
}

std::uint64_t Rng::uniformIndex(std::uint64_t bound) {
  if (bound == 0)
    throw std::invalid_argument("Rng::uniformIndex: bound must be > 0");
  // Lemire 2019: map a 64-bit draw onto [0, bound) via the high word of
  // a 128-bit product, rejecting the small biased fringe.
  std::uint64_t x = (*this)();
  unsigned __int128 product =
      static_cast<unsigned __int128>(x) * bound;
  auto low = static_cast<std::uint64_t>(product);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = (*this)();
      product = static_cast<unsigned __int128>(x) * bound;
      low = static_cast<std::uint64_t>(product);
    }
  }
  return static_cast<std::uint64_t>(product >> 64);
}

double Rng::normal(double mean, double stddev) {
  // A standard deviate scaled here rather than by the distribution,
  // whose precondition is stddev > 0: libstdc++ computes the same
  // z * stddev + mean, so the stream and every value are unchanged,
  // and stddev == 0 returns `mean` after the same draws.
  const double z = std::normal_distribution<double>(0.0, 1.0)(*this);
  return z * stddev + mean;
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform(0.0, 1.0) < p;
}

Rng Rng::split() { return Rng((*this)()); }

std::array<std::uint64_t, 4> Rng::state() const {
  return {state_[0], state_[1], state_[2], state_[3]};
}

void Rng::setState(const std::array<std::uint64_t, 4>& state) {
  if ((state[0] | state[1] | state[2] | state[3]) == 0)
    throw std::invalid_argument(
        "Rng::setState: the all-zero state is xoshiro's fixed point");
  for (int i = 0; i < 4; ++i) state_[i] = state[i];
}

}  // namespace moloc::util
