#include "radio/fingerprint.hpp"

#include <cmath>
#include <stdexcept>

#include "util/error.hpp"

namespace moloc::radio {

Fingerprint Fingerprint::truncated(std::size_t n) const {
  if (n >= rss_.size()) return *this;
  return Fingerprint(std::vector<double>(
      rss_.begin(), rss_.begin() + static_cast<long>(n)));
}

double squaredDissimilarity(const Fingerprint& a, const Fingerprint& b) {
  if (a.size() != b.size())
    throw util::ConfigError(
        "dissimilarity: fingerprint dimensions differ");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double dissimilarity(const Fingerprint& a, const Fingerprint& b) {
  return std::sqrt(squaredDissimilarity(a, b));
}

Fingerprint meanFingerprint(std::span<const Fingerprint> fps) {
  if (fps.empty())
    throw util::ConfigError("meanFingerprint: empty sample set");
  const std::size_t n = fps.front().size();
  std::vector<double> acc(n, 0.0);
  for (const auto& fp : fps) {
    if (fp.size() != n)
      throw util::ConfigError("meanFingerprint: mismatched lengths");
    for (std::size_t i = 0; i < n; ++i) acc[i] += fp[i];
  }
  for (double& v : acc) v /= static_cast<double>(fps.size());
  return Fingerprint(std::move(acc));
}

}  // namespace moloc::radio
