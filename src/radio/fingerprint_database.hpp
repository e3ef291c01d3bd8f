#pragma once

#include <cstddef>
#include <exception>
#include <span>
#include <unordered_map>
#include <vector>

#include "env/floor_plan.hpp"
#include "kernel/fingerprint_kernel.hpp"
#include "radio/fingerprint.hpp"

namespace moloc::radio {

/// Floor for Eq. 4's 1/m weights.  Besides guarding the division when a
/// query exactly matches a stored fingerprint, the floor encodes a
/// physical fact: dissimilarities below ~half a dB are measurement
/// coincidence, not information, and must not let the fingerprint term
/// overrule the motion term (a 1e-9 floor would make an exact match
/// ~10^9 times "more likely" than a twin 0.1 dB away).  Exported so
/// alternative matching backends (index::TieredIndex) reproduce Eq. 4
/// bitwise.
inline constexpr double kMinDissimilarity = 0.5;

/// One fingerprint-matching result: a candidate location, its
/// dissimilarity m_i = phi(F, F_i), and its probability from Eq. 4.
struct Match {
  env::LocationId location = 0;
  double dissimilarity = 0.0;
  double probability = 0.0;
};

/// The location -> fingerprint radio map built by the site survey
/// (Sec. IV.B.1), supporting the paper's two query modes:
///   - `nearest` implements Eq. 2 (the plain WiFi baseline), and
///   - `query` implements Eq. 3-4 (the k-nearest candidate set with
///     probabilities P(x = l_i | F) = (1/m_i) / sum_j (1/m_j)).
///
/// The radio map lives in one place: the data-oriented kernel's
/// blocked flat matrix (src/kernel, entries x APs, stride padded to
/// the kernel block), appended to by addLocation.  Squared distances
/// are computed by a blocked kernel (auto-vectorized scalar, or
/// runtime-dispatched AVX2 when the build enables MOLOC_SIMD), and the
/// top k are selected with a bounded max-heap instead of materializing
/// and partial-sorting all matches.  entry()/entryAt() gather a row
/// back out of the matrix, bit for bit.  Ties in dissimilarity rank
/// the earlier-inserted entry first.
class FingerprintDatabase {
 public:
  FingerprintDatabase() = default;

  /// Zero-copy construction from a venue image (src/image): the
  /// matrix adopts `blockedFlat` (a FlatMatrix::view over the image's
  /// blocked section) instead of re-packing it, and row r belongs to
  /// ids[r].  The viewed buffer must outlive the database — the image
  /// loader pins the mapping for it.  Only the shape and id uniqueness
  /// are validated here; value-level integrity is the image's CRC
  /// contract.  Throws std::invalid_argument on a shape mismatch or
  /// duplicate id.
  static FingerprintDatabase fromImageView(
      std::span<const env::LocationId> ids, kernel::FlatMatrix blockedFlat);

  /// Registers the radio-map entry for a location.  Entries must share
  /// one AP dimensionality; ids may arrive in any order but must be
  /// unique.  Throws std::invalid_argument on violations.
  void addLocation(env::LocationId id, Fingerprint radioMapEntry);

  std::size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  /// Dimensionality (number of APs) of stored fingerprints; 0 if empty.
  std::size_t apCount() const { return flat_.cols(); }

  /// A copy of the stored radio-map entry for `id`, gathered from its
  /// matrix row; throws std::out_of_range when the id was never added.
  Fingerprint entry(env::LocationId id) const;

  /// A copy of the entry at insertion position `row` (row order
  /// matches flatMatrix() rows), skipping the id hash.  `row` must be
  /// < size().
  Fingerprint entryAt(std::size_t row) const;
  env::LocationId idAt(std::size_t row) const { return ids_[row]; }

  /// True iff `id` has a radio-map entry.
  bool contains(env::LocationId id) const;

  /// All stored location ids, in insertion order.
  const std::vector<env::LocationId>& locationIds() const { return ids_; }

  /// Eq. 2: the single location of least dissimilarity (ties keep the
  /// earliest-inserted entry).  Throws std::logic_error on an empty
  /// database.
  env::LocationId nearest(const Fingerprint& query) const;

  /// Eq. 3-4: the k nearest locations, ascending by dissimilarity, with
  /// normalized inverse-dissimilarity probabilities.  Returns fewer than
  /// k matches when the database is smaller.  k must be >= 1.
  std::vector<Match> query(const Fingerprint& query, std::size_t k) const;

  /// Allocation-free variant of query(): fills `out` (clearing it
  /// first) so a caller on the serving hot path can reuse one scratch
  /// buffer across rounds instead of allocating a size-n vector per
  /// call.  `out` is left unspecified if an exception is thrown.
  void queryInto(const Fingerprint& query, std::size_t k,
                 std::vector<Match>& out) const;

  /// Multi-query batch entry point: answers every query in `queries`
  /// against one shared kernel workspace, filling out[i] with query
  /// i's matches — bitwise-identical to calling queryInto per query.
  /// The serving layer uses this to gather a whole localizeBatch's
  /// scans into one kernel invocation instead of n independent scans.
  ///
  /// Error handling is per-query so one poisoned scan cannot sink a
  /// whole batch: when `errors` is non-null it is resized to match and
  /// a query that fails validation (e.g. non-finite RSS) gets its
  /// exception captured in errors[i] with out[i] left empty, while
  /// every other query is answered.  With a null `errors`, the first
  /// failure is thrown.  Database-wide preconditions (empty database,
  /// k == 0) always throw.
  void queryBatchInto(std::span<const Fingerprint* const> queries,
                      std::size_t k, std::vector<std::vector<Match>>& out,
                      std::vector<std::exception_ptr>* errors = nullptr) const;

  /// A copy of this database restricted to the first `n` APs — how the
  /// paper derives its 4- and 5-AP configurations from the 6-AP survey.
  FingerprintDatabase truncatedTo(std::size_t n) const;

  /// The kernel-side storage (exposed for tests and benchmarks).
  const kernel::FlatMatrix& flatMatrix() const { return flat_; }

 private:
  /// Shared body of queryInto/queryBatchInto: distances + top-k +
  /// Eq. 4 probabilities for one already-validated query.
  void queryPrepared(const Fingerprint& query, std::size_t k,
                     kernel::QueryWorkspace& ws,
                     std::vector<Match>& out) const;

  /// Row r's location id.
  std::vector<env::LocationId> ids_;
  /// id -> row, so entry()/contains() are O(1) and DB construction is
  /// amortized O(n) instead of the O(n^2) of scanning ids_ per lookup.
  /// Rows stay valid because the database is append-only.
  std::unordered_map<env::LocationId, std::size_t> indexById_;
  /// Row r holds ids_[r]'s RSS values in the kernel's blocked
  /// interleaved layout — the only copy; appended on every addLocation.
  kernel::FlatMatrix flat_;
};

}  // namespace moloc::radio
