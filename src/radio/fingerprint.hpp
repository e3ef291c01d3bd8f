#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace moloc::radio {

/// An RSS fingerprint F = (f1, ..., fn): one received-signal-strength
/// value in dBm per access point, in a fixed AP order (Sec. IV.B.1).
class Fingerprint {
 public:
  Fingerprint() = default;
  explicit Fingerprint(std::vector<double> rssDbm)
      : rss_(std::move(rssDbm)) {}

  std::size_t size() const { return rss_.size(); }
  bool empty() const { return rss_.empty(); }

  double operator[](std::size_t i) const { return rss_[i]; }
  double& operator[](std::size_t i) { return rss_[i]; }

  std::span<const double> values() const { return rss_; }

  /// Keeps only the first `n` APs; used to derive the paper's 4/5-AP
  /// configurations from a 6-AP survey.  No-op when n >= size().
  Fingerprint truncated(std::size_t n) const;

 private:
  std::vector<double> rss_;
};

/// Euclidean dissimilarity phi(F, F') between two fingerprints (Eq. 1).
/// Throws std::invalid_argument when dimensions differ.
double dissimilarity(const Fingerprint& a, const Fingerprint& b);

/// phi^2, exposed separately because the k-NN search only needs ordering
/// and can skip the square root.
double squaredDissimilarity(const Fingerprint& a, const Fingerprint& b);

/// Component-wise mean of a non-empty set of equal-length fingerprints
/// (the "radio map" entry for a surveyed location).
/// Throws std::invalid_argument on an empty set or mismatched lengths.
Fingerprint meanFingerprint(std::span<const Fingerprint> fps);

}  // namespace moloc::radio
