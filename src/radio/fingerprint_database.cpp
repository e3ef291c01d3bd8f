#include "radio/fingerprint_database.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/error.hpp"

namespace moloc::radio {

namespace {

bool allFinite(const Fingerprint& fp) {
  for (std::size_t i = 0; i < fp.size(); ++i)
    if (!std::isfinite(fp[i])) return false;
  return true;
}

/// Per-thread kernel scratch: queryInto must stay lock-free and
/// allocation-free on the serving hot path while the database is
/// shared read-only across worker threads, so the workspace lives per
/// thread rather than per database.
kernel::QueryWorkspace& threadWorkspace() {
  static thread_local kernel::QueryWorkspace workspace;
  return workspace;
}

}  // namespace

FingerprintDatabase FingerprintDatabase::fromImageView(
    std::span<const env::LocationId> ids, kernel::FlatMatrix blockedFlat) {
  if (blockedFlat.rows() != ids.size() ||
      (!ids.empty() && blockedFlat.cols() == 0))
    throw util::ConfigError(
        "FingerprintDatabase: view flat-matrix shape mismatch");
  FingerprintDatabase db;
  db.ids_.assign(ids.begin(), ids.end());
  db.indexById_.reserve(ids.size());
  for (std::size_t r = 0; r < ids.size(); ++r)
    if (!db.indexById_.emplace(ids[r], r).second)
      throw util::ConfigError(
          "FingerprintDatabase: duplicate location " +
          std::to_string(ids[r]));
  db.flat_ = std::move(blockedFlat);
  return db;
}

void FingerprintDatabase::addLocation(env::LocationId id,
                                      Fingerprint radioMapEntry) {
  if (radioMapEntry.empty())
    throw util::ConfigError("FingerprintDatabase: empty fingerprint");
  if (!allFinite(radioMapEntry))
    throw util::ConfigError(
        "FingerprintDatabase: non-finite RSS value");
  if (!ids_.empty() && radioMapEntry.size() != apCount())
    throw util::ConfigError(
        "FingerprintDatabase: mismatched AP dimensionality");
  if (contains(id))
    throw util::ConfigError("FingerprintDatabase: duplicate location " +
                                std::to_string(id));
  if (ids_.empty()) flat_.reset(radioMapEntry.size());
  flat_.appendRow(radioMapEntry.values());
  ids_.push_back(id);
  indexById_.emplace(id, ids_.size() - 1);
}

Fingerprint FingerprintDatabase::entry(env::LocationId id) const {
  const auto it = indexById_.find(id);
  if (it == indexById_.end())
    throw std::out_of_range("FingerprintDatabase: unknown location " +
                            std::to_string(id));
  return entryAt(it->second);
}

Fingerprint FingerprintDatabase::entryAt(std::size_t row) const {
  std::vector<double> rss(flat_.cols());
  for (std::size_t c = 0; c < rss.size(); ++c) rss[c] = flat_.at(row, c);
  return Fingerprint(std::move(rss));
}

bool FingerprintDatabase::contains(env::LocationId id) const {
  return indexById_.find(id) != indexById_.end();
}

env::LocationId FingerprintDatabase::nearest(const Fingerprint& query) const {
  if (ids_.empty())
    throw util::StateError("FingerprintDatabase: empty database");
  if (!allFinite(query))
    throw util::ConfigError(
        "FingerprintDatabase: non-finite query RSS");
  if (query.size() != apCount())
    throw util::ConfigError(
        "dissimilarity: fingerprint dimensions differ");
  auto& ws = threadWorkspace();
  ws.distances.resize(flat_.paddedRows());
  kernel::squaredDistances(flat_, query.values().data(),
                           ws.distances.data());
  // Strict < keeps the earliest-inserted entry on ties — the same rule
  // the pre-kernel scan applied (and it evaluates each entry once; the
  // old loop recomputed the first entry's dissimilarity as its seed).
  std::size_t best = 0;
  for (std::size_t r = 1; r < flat_.rows(); ++r)
    if (ws.distances[r] < ws.distances[best]) best = r;
  return ids_[best];
}

std::vector<Match> FingerprintDatabase::query(const Fingerprint& query,
                                              std::size_t k) const {
  std::vector<Match> matches;
  queryInto(query, k, matches);
  return matches;
}

void FingerprintDatabase::queryPrepared(const Fingerprint& query,
                                        std::size_t k,
                                        kernel::QueryWorkspace& ws,
                                        std::vector<Match>& out) const {
  ws.distances.resize(flat_.paddedRows());
  kernel::squaredDistances(flat_, query.values().data(),
                           ws.distances.data());
  kernel::selectSmallestK(
      std::span<const double>(ws.distances.data(), flat_.rows()), k,
      ws.topk);

  // sqrt only for the k winners (ordering is decided on squared
  // distances; sqrt is monotone, so the ranking is unchanged), and the
  // per-entry value is bitwise-identical to dissimilarity(): the same
  // sum, then one sqrt.
  out.clear();
  out.reserve(ws.topk.size());
  for (const auto& top : ws.topk)
    out.push_back(
        {ids_[top.row], std::sqrt(top.squaredDistance), 0.0});

  double invSum = 0.0;
  for (const auto& m : out)
    invSum += 1.0 / std::max(m.dissimilarity, kMinDissimilarity);
  for (auto& m : out)
    m.probability =
        (1.0 / std::max(m.dissimilarity, kMinDissimilarity)) / invSum;
}

void FingerprintDatabase::queryInto(const Fingerprint& query, std::size_t k,
                                    std::vector<Match>& out) const {
  if (k == 0)
    throw util::ConfigError("FingerprintDatabase: k must be >= 1");
  if (ids_.empty())
    throw util::StateError("FingerprintDatabase: empty database");
  if (!allFinite(query))
    throw util::ConfigError(
        "FingerprintDatabase: non-finite query RSS");
  if (query.size() != apCount())
    throw util::ConfigError(
        "dissimilarity: fingerprint dimensions differ");
  auto& ws = threadWorkspace();
  queryPrepared(query, k, ws, out);
}

void FingerprintDatabase::queryBatchInto(
    std::span<const Fingerprint* const> queries, std::size_t k,
    std::vector<std::vector<Match>>& out,
    std::vector<std::exception_ptr>* errors) const {
  if (k == 0)
    throw util::ConfigError("FingerprintDatabase: k must be >= 1");
  if (ids_.empty())
    throw util::StateError("FingerprintDatabase: empty database");
  out.resize(queries.size());
  if (errors) errors->assign(queries.size(), nullptr);
  auto& ws = threadWorkspace();
  for (std::size_t q = 0; q < queries.size(); ++q) {
    out[q].clear();
    try {
      const Fingerprint& query = *queries[q];
      if (!allFinite(query))
        throw util::ConfigError(
            "FingerprintDatabase: non-finite query RSS");
      if (query.size() != apCount())
        throw util::ConfigError(
            "dissimilarity: fingerprint dimensions differ");
      queryPrepared(query, k, ws, out[q]);
    } catch (...) {
      if (!errors) throw;
      (*errors)[q] = std::current_exception();
    }
  }
}

FingerprintDatabase FingerprintDatabase::truncatedTo(std::size_t n) const {
  FingerprintDatabase reduced;
  for (std::size_t r = 0; r < ids_.size(); ++r)
    reduced.addLocation(ids_[r], entryAt(r).truncated(n));
  return reduced;
}

}  // namespace moloc::radio
