#include "index/tiered_index.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>

#include "kernel/fingerprint_kernel.hpp"
#include "util/error.hpp"

namespace moloc::index {

namespace {

/// Histogram bins for the running threshold selection.  Bucket-space
/// distances are clamped into the last bin; a threshold landing there
/// only enlarges the shortlist (never drops a candidate), so the cap
/// is overshoot-safe.
constexpr std::uint32_t kHistogramCap = 4096;

bool allFinite(const radio::Fingerprint& fp) {
  for (std::size_t i = 0; i < fp.size(); ++i)
    if (!std::isfinite(fp[i])) return false;
  return true;
}

}  // namespace

struct TieredIndex::ScanWorkspace {
  std::vector<std::uint8_t> qBuckets;
  std::vector<std::uint8_t> qActive;  ///< One shard's active buckets.
  std::vector<std::uint32_t> shardLb;
  std::vector<std::uint32_t> shardOffset;
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> rowDistance;  ///< Per global row, scanned only.
  std::vector<std::uint32_t> histogram;
  std::vector<std::uint32_t> scannedShards;
  std::vector<std::uint32_t> shortlist;
  std::vector<kernel::PlanStep> plan;
  std::vector<double> distances;
  std::vector<kernel::TopKEntry> topk;
  std::vector<double> fullDistances;
  std::vector<kernel::TopKEntry> fullTopk;
};

TieredIndex::ScanWorkspace& TieredIndex::threadWorkspace() {
  // Per-thread scratch keeps concurrent queries lock-free and
  // allocation-free against a shared immutable index, mirroring
  // FingerprintDatabase's kernel workspace.
  static thread_local ScanWorkspace workspace;
  return workspace;
}

TieredIndex::TieredIndex(
    std::shared_ptr<const radio::FingerprintDatabase> database,
    IndexConfig config, std::span<const std::size_t> shardStarts)
    : db_(std::move(database)), config_(config) {
  if (!db_) throw util::ConfigError("TieredIndex: null database");
  validateQuantizer(config_.quantizer);
  if (config_.maxShardEntries == 0)
    throw util::ConfigError(
        "TieredIndex: maxShardEntries must be >= 1");

  const std::size_t n = db_->size();

  // Segment boundaries: caller-provided natural volumes (per
  // building/floor), else one segment; each capped at maxShardEntries.
  std::vector<std::size_t> starts(shardStarts.begin(), shardStarts.end());
  if (starts.empty()) starts.push_back(0);
  if (starts.front() != 0)
    throw util::ConfigError(
        "TieredIndex: shardStarts must begin at row 0");
  for (std::size_t i = 1; i < starts.size(); ++i)
    if (starts[i] <= starts[i - 1] || starts[i] >= n)
      throw util::ConfigError(
          "TieredIndex: shardStarts must be strictly increasing and "
          "inside the database");

  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::size_t i = 0; i < starts.size() && n > 0; ++i) {
    const std::size_t segmentEnd =
        i + 1 < starts.size() ? starts[i + 1] : n;
    for (std::size_t begin = starts[i]; begin < segmentEnd;
         begin += config_.maxShardEntries)
      ranges.emplace_back(
          begin, std::min(begin + config_.maxShardEntries, segmentEnd));
  }

  // Shards are built independently — each one quantizes and profiles
  // only its own row range into its own slot — so the threads below
  // produce shards bitwise-identical to a serial loop at any thread
  // count (the parallel/serial identity test holds the proof).  The
  // calling thread builds too, alongside `workers - 1` helpers.
  std::size_t workers =
      config_.buildThreads != 0
          ? config_.buildThreads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers = std::min(workers, ranges.size());
  shards_.resize(ranges.size());
  storage_.resize(ranges.size());
  std::vector<std::exception_ptr> errors(ranges.size());
  std::atomic<std::size_t> next{0};
  const auto buildShards = [&] {
    for (std::size_t s = next++; s < ranges.size(); s = next++) {
      try {
        buildShard(s, ranges[s].first, ranges[s].second);
      } catch (...) {
        errors[s] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> helpers;
  try {
    while (helpers.size() + 1 < workers) helpers.emplace_back(buildShards);
  } catch (const std::system_error&) {
    // Fewer helpers only slow the build; the shards come out the same.
  }
  buildShards();
  for (auto& helper : helpers) helper.join();
  // The failure of the lowest-numbered shard, whatever the scheduling.
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);
}

void TieredIndex::buildShard(std::size_t shard, std::size_t rowBegin,
                             std::size_t rowEnd) {
  const std::size_t count = rowEnd - rowBegin;
  const std::size_t apCount = db_->apCount();
  ShardStorage& st = storage_[shard];

  // One pass over the shard's rows: quantize every value (row-major
  // scratch) and profile every column by bit pattern, so -0.0 and +0.0
  // count as different values.
  std::vector<std::uint8_t> buckets(count * apCount);
  std::vector<std::uint64_t> firstBits(apCount);
  std::vector<bool> varies(apCount, false);
  for (std::size_t e = 0; e < count; ++e) {
    const std::span<const double> row = db_->entryAt(rowBegin + e).values();
    for (std::size_t c = 0; c < apCount; ++c) {
      buckets[e * apCount + c] = quantizeRss(row[c], config_.quantizer);
      const auto bits = std::bit_cast<std::uint64_t>(row[c]);
      if (e == 0)
        firstBits[c] = bits;
      else if (bits != firstBits[c])
        varies[c] = true;
    }
  }
  st.columnValues.assign(apCount, 0.0);
  for (std::size_t c = 0; c < apCount; ++c) {
    if (varies[c])
      st.varyingColumns.push_back(static_cast<std::uint32_t>(c));
    else
      st.columnValues[c] = std::bit_cast<double>(firstBits[c]);
  }

  // An AP silent across the whole shard carries no signature byte —
  // the query-time contribution of such APs is a per-shard constant.
  for (std::size_t c = 0; c < apCount; ++c) {
    std::uint8_t minBucket = std::numeric_limits<std::uint8_t>::max();
    std::uint8_t maxBucket = 0;
    for (std::size_t e = 0; e < count; ++e) {
      const std::uint8_t b = buckets[e * apCount + c];
      minBucket = std::min(minBucket, b);
      maxBucket = std::max(maxBucket, b);
    }
    if (maxBucket == 0) continue;
    st.activeAps.push_back(static_cast<std::uint32_t>(c));
    st.minBucket.push_back(minBucket);
    st.maxBucket.push_back(maxBucket);
  }

  const std::size_t stride = signatureStride(st.activeAps.size());
  st.signatures.assign(count * stride, 0);
  for (std::size_t e = 0; e < count; ++e)
    for (std::size_t a = 0; a < st.activeAps.size(); ++a)
      st.signatures[e * stride + a] =
          buckets[e * apCount + st.activeAps[a]];

  shards_[shard] = {rowBegin,     rowEnd,
                    st.activeAps, st.minBucket,
                    st.maxBucket, st.signatures,
                    st.varyingColumns, st.columnValues};
}

TieredIndex TieredIndex::fromImageViews(
    std::shared_ptr<const radio::FingerprintDatabase> database,
    IndexConfig config, std::span<const ShardView> shards) {
  TieredIndex index;
  index.db_ = std::move(database);
  index.config_ = config;
  if (!index.db_)
    throw util::ConfigError("TieredIndex: null database");
  validateQuantizer(index.config_.quantizer);
  if (index.config_.maxShardEntries == 0)
    throw util::ConfigError(
        "TieredIndex: maxShardEntries must be >= 1");

  const std::size_t n = index.db_->size();
  const std::size_t apCount = index.db_->apCount();
  const int bucketCount = index.config_.quantizer.bucketCount;
  if (n == 0 && !shards.empty())
    throw util::ConfigError(
        "TieredIndex: shard views over an empty database");

  const auto strictlyIncreasingBelow =
      [apCount](std::span<const std::uint32_t> columns) {
        for (std::size_t i = 0; i < columns.size(); ++i)
          if (columns[i] >= apCount ||
              (i > 0 && columns[i] <= columns[i - 1]))
            return false;
        return true;
      };

  index.shards_.reserve(shards.size());
  std::size_t nextRow = 0;
  for (const ShardView& v : shards) {
    if (v.rowBegin != nextRow || v.rowEnd <= v.rowBegin || v.rowEnd > n)
      throw util::ConfigError(
          "TieredIndex: shard views must partition the rows in order");
    nextRow = v.rowEnd;
    const std::size_t count = v.rowEnd - v.rowBegin;
    if (v.minBucket.size() != v.activeAps.size() ||
        v.maxBucket.size() != v.activeAps.size())
      throw util::ConfigError(
          "TieredIndex: shard bucket ranges must match activeAps");
    if (!strictlyIncreasingBelow(v.activeAps))
      throw util::ConfigError(
          "TieredIndex: shard activeAps must be strictly increasing "
          "and within the AP count");
    for (std::size_t a = 0; a < v.activeAps.size(); ++a)
      if (v.maxBucket[a] == 0 || v.maxBucket[a] >= bucketCount ||
          v.minBucket[a] > v.maxBucket[a])
        throw util::ConfigError(
            "TieredIndex: shard bucket range out of bounds");
    if (v.signatures.size() != count * signatureStride(v.activeAps.size()))
      throw util::ConfigError(
          "TieredIndex: shard signature size mismatch");
    if (!strictlyIncreasingBelow(v.varyingColumns))
      throw util::ConfigError(
          "TieredIndex: shard varyingColumns must be strictly "
          "increasing and within the AP count");
    if (v.columnValues.size() != apCount)
      throw util::ConfigError(
          "TieredIndex: shard column values must cover every AP");
    index.shards_.push_back(v);
  }
  if (nextRow != n)
    throw util::ConfigError(
        "TieredIndex: shard views must cover every row");
  return index;
}

ShardInfo TieredIndex::shardInfo(std::size_t shard) const {
  const ShardView& s = shardView(shard);
  return {s.rowBegin, s.rowEnd, s.activeAps.size(),
          s.varyingColumns.size()};
}

const ShardView& TieredIndex::shardView(std::size_t shard) const {
  if (shard >= shards_.size())
    throw std::out_of_range("TieredIndex: bad shard index " +
                            std::to_string(shard));
  return shards_[shard];
}

void TieredIndex::scanShard(const ShardView& shard,
                            const std::uint8_t* qBuckets,
                            std::uint32_t offset,
                            ScanWorkspace& ws) const {
  // The query's buckets of the shard's active APs, laid out like one
  // entry's signature (zero padding included, so padding adds 0).
  // Spelling the stride as whole chunks tells the compiler the inner
  // loop needs no scalar tail: it becomes one sum-of-absolute-
  // differences per 16 bytes at -O2 and -O3 alike.
  const std::size_t chunks =
      signatureStride(shard.activeAps.size()) / kSignatureChunk;
  const std::size_t stride = chunks * kSignatureChunk;
  ws.qActive.assign(stride, 0);
  for (std::size_t a = 0; a < shard.activeAps.size(); ++a)
    ws.qActive[a] = qBuckets[shard.activeAps[a]];
  const std::uint8_t* q = ws.qActive.data();

  const std::size_t count = shard.rowEnd - shard.rowBegin;
  const std::uint8_t* signature = shard.signatures.data();
  for (std::size_t e = 0; e < count; ++e, signature += stride) {
    // offset + sum_a |q_a - b_a|: the bucket-space L1 distance.
    std::uint32_t distance = offset;
    for (std::size_t j = 0; j < stride; ++j)
      distance += static_cast<std::uint32_t>(
          std::abs(static_cast<int>(q[j]) - static_cast<int>(signature[j])));
    ws.rowDistance[shard.rowBegin + e] = distance;
    ++ws.histogram[std::min(distance, kHistogramCap - 1)];
  }
}

void TieredIndex::queryPrepared(const radio::Fingerprint& query,
                                std::size_t k, ScanWorkspace& ws,
                                std::vector<radio::Match>& out,
                                QueryStats* stats) const {
  const std::size_t apCount = db_->apCount();
  const std::size_t n = db_->size();

  ws.qBuckets.resize(apCount);
  std::uint32_t totalQ = 0;
  for (std::size_t c = 0; c < apCount; ++c) {
    ws.qBuckets[c] = quantizeRss(query[c], config_.quantizer);
    totalQ += ws.qBuckets[c];
  }

  // Per-shard lower bound on the bucket-space distance: active APs
  // contribute their distance to the shard's bucket range, shard-silent
  // APs contribute the full query bucket (entry bucket is 0 there).
  ws.shardLb.resize(shards_.size());
  ws.shardOffset.resize(shards_.size());
  ws.order.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const ShardView& shard = shards_[s];
    std::uint32_t bound = 0;
    std::uint32_t activeQ = 0;
    for (std::size_t a = 0; a < shard.activeAps.size(); ++a) {
      const std::uint8_t q = ws.qBuckets[shard.activeAps[a]];
      activeQ += q;
      if (q < shard.minBucket[a])
        bound += shard.minBucket[a] - q;
      else if (q > shard.maxBucket[a])
        bound += q - shard.maxBucket[a];
    }
    ws.shardOffset[s] = totalQ - activeQ;
    ws.shardLb[s] = bound + ws.shardOffset[s];
    ws.order[s] = static_cast<std::uint32_t>(s);
  }
  std::sort(ws.order.begin(), ws.order.end(),
            [&ws](std::uint32_t a, std::uint32_t b) {
              return ws.shardLb[a] != ws.shardLb[b]
                         ? ws.shardLb[a] < ws.shardLb[b]
                         : a < b;
            });

  // Scan shards in bound order, tracking the running S-th smallest
  // distance; stop when the next shard provably cannot land inside
  // the margin.  Entries in skipped shards sit above the admission
  // threshold by construction, so the shortlist below is complete.
  const std::size_t wanted = std::max(k, config_.minShortlist);
  ws.rowDistance.resize(n);
  ws.histogram.assign(kHistogramCap, 0);
  ws.scannedShards.clear();
  std::size_t scanned = 0;
  std::uint32_t threshold = 0;
  bool thresholdSet = false;
  for (const std::uint32_t s : ws.order) {
    if (thresholdSet &&
        ws.shardLb[s] > threshold + config_.marginBuckets)
      break;
    scanShard(shards_[s], ws.qBuckets.data(), ws.shardOffset[s], ws);
    ws.scannedShards.push_back(s);
    scanned += shards_[s].rowEnd - shards_[s].rowBegin;
    if (scanned >= wanted) {
      std::size_t cumulative = 0;
      for (std::uint32_t bin = 0; bin < kHistogramCap; ++bin) {
        cumulative += ws.histogram[bin];
        if (cumulative >= wanted) {
          threshold = bin;
          break;
        }
      }
      thresholdSet = true;
    }
  }

  const std::uint32_t admit =
      thresholdSet ? threshold + config_.marginBuckets
                   : std::numeric_limits<std::uint32_t>::max();

  // Collect survivors in ascending row order so the exact re-rank
  // preserves selectSmallestK's lower-row tie-break, and re-rank each
  // shard's survivors in place through that shard's column plan.  A
  // row's planned sum is bitwise its full-scan distance.
  std::sort(ws.scannedShards.begin(), ws.scannedShards.end());
  const kernel::FlatMatrix& flat = db_->flatMatrix();
  ws.shortlist.clear();
  ws.distances.clear();
  for (const std::uint32_t s : ws.scannedShards) {
    const ShardView& shard = shards_[s];
    const std::size_t begin = ws.shortlist.size();
    for (std::size_t r = shard.rowBegin; r < shard.rowEnd; ++r)
      if (ws.rowDistance[r] <= admit)
        ws.shortlist.push_back(static_cast<std::uint32_t>(r));
    if (ws.shortlist.size() == begin) continue;
    kernel::planRowDistance(query.values().data(), apCount,
                            shard.varyingColumns,
                            shard.columnValues.data(), ws.plan);
    ws.distances.resize(ws.shortlist.size());
    kernel::plannedSquaredDistances(
        flat, ws.plan,
        std::span<const std::uint32_t>(ws.shortlist).subspan(begin),
        ws.distances.data() + begin);
  }
  kernel::selectSmallestK(ws.distances, k, ws.topk);

  out.clear();
  out.reserve(ws.topk.size());
  for (const auto& top : ws.topk)
    out.push_back({db_->idAt(ws.shortlist[top.row]),
                   std::sqrt(top.squaredDistance), 0.0});
  double invSum = 0.0;
  for (const auto& m : out)
    invSum += 1.0 / std::max(m.dissimilarity, radio::kMinDissimilarity);
  for (auto& m : out)
    m.probability =
        (1.0 / std::max(m.dissimilarity, radio::kMinDissimilarity)) /
        invSum;

  if (stats) {
    stats->shortlistSize = ws.shortlist.size();
    stats->scannedShards = ws.scannedShards.size();
    stats->totalShards = shards_.size();
    stats->scannedEntries = scanned;
  }

  if (config_.exhaustiveCheck) {
    ws.fullDistances.resize(flat.paddedRows());
    kernel::squaredDistances(flat, query.values().data(),
                             ws.fullDistances.data());
    kernel::selectSmallestK(
        std::span<const double>(ws.fullDistances.data(), flat.rows()), k,
        ws.fullTopk);
    std::size_t missed = 0;
    for (const auto& top : ws.fullTopk)
      if (!std::binary_search(ws.shortlist.begin(), ws.shortlist.end(),
                              static_cast<std::uint32_t>(top.row)))
        ++missed;
    if (stats) stats->missedTopK = missed;
    if (missed > 0)
      throw util::StateError(
          "TieredIndex: exhaustive check failed: shortlist dropped " +
          std::to_string(missed) + " of the true top-" +
          std::to_string(ws.fullTopk.size()) + " entries");
  }
}

void TieredIndex::queryInto(const radio::Fingerprint& query,
                            std::size_t k, std::vector<radio::Match>& out,
                            QueryStats* stats) const {
  if (k == 0)
    throw util::ConfigError("TieredIndex: k must be >= 1");
  if (db_->size() == 0)
    throw util::StateError("TieredIndex: empty database");
  if (!allFinite(query))
    throw util::ConfigError("TieredIndex: non-finite query RSS");
  if (query.size() != db_->apCount())
    throw util::ConfigError(
        "dissimilarity: fingerprint dimensions differ");
  queryPrepared(query, k, threadWorkspace(), out, stats);
}

std::vector<radio::Match> TieredIndex::query(
    const radio::Fingerprint& query, std::size_t k) const {
  std::vector<radio::Match> out;
  queryInto(query, k, out);
  return out;
}

void TieredIndex::queryBatchInto(
    std::span<const radio::Fingerprint* const> queries, std::size_t k,
    std::vector<std::vector<radio::Match>>& out,
    std::vector<std::exception_ptr>* errors) const {
  if (k == 0)
    throw util::ConfigError("TieredIndex: k must be >= 1");
  if (db_->size() == 0)
    throw util::StateError("TieredIndex: empty database");
  out.resize(queries.size());
  if (errors) errors->assign(queries.size(), nullptr);
  ScanWorkspace& ws = threadWorkspace();
  for (std::size_t q = 0; q < queries.size(); ++q) {
    out[q].clear();
    try {
      const radio::Fingerprint& query = *queries[q];
      if (!allFinite(query))
        throw util::ConfigError("TieredIndex: non-finite query RSS");
      if (query.size() != db_->apCount())
        throw util::ConfigError(
            "dissimilarity: fingerprint dimensions differ");
      queryPrepared(query, k, ws, out[q], nullptr);
    } catch (...) {
      if (!errors) throw;
      (*errors)[q] = std::current_exception();
    }
  }
}

}  // namespace moloc::index
