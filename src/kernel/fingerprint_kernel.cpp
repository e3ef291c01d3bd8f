#include "kernel/fingerprint_kernel.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>

#include "util/error.hpp"

namespace moloc::kernel {

namespace {

std::atomic<bool> g_forceScalar{false};

#if MOLOC_SIMD_ENABLED
bool cpuHasAvx2() {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
}
#endif

bool useAvx2() {
#if MOLOC_SIMD_ENABLED
  return cpuHasAvx2() && !g_forceScalar.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

}  // namespace

#if MOLOC_SIMD_ENABLED
namespace detail {
// Defined in fingerprint_kernel_avx2.cpp (compiled with -mavx2 only —
// no -mfma, so the compiler cannot contract mul+add into an FMA and
// change the rounding versus the scalar path).
void squaredDistancesAvx2(const double* data, std::size_t paddedRows,
                          std::size_t cols, const double* query,
                          double* out);
std::size_t findBelowAvx2(const double* values, std::size_t begin,
                          std::size_t end, double threshold);
}  // namespace detail
#endif

FlatMatrix FlatMatrix::view(const double* data, std::size_t rows,
                            std::size_t cols) {
  if (rows > 0 && data == nullptr)
    throw util::ConfigError("FlatMatrix: null view data");
  FlatMatrix m;
  m.borrowed_ = data;
  m.rows_ = rows;
  m.cols_ = cols;
  return m;
}

void FlatMatrix::reset(std::size_t cols) {
  if (borrowed_ != nullptr)
    throw util::StateError("FlatMatrix: cannot reset an immutable view");
  data_.clear();
  rows_ = 0;
  cols_ = cols;
}

void FlatMatrix::appendRow(std::span<const double> row) {
  if (borrowed_ != nullptr)
    throw util::StateError(
        "FlatMatrix: cannot append to an immutable view");
  if (row.size() != cols_)
    throw util::ConfigError("FlatMatrix: row length mismatch");
  // Entering a new block allocates it whole and zero-filled, so the
  // trailing partial block is always valid kernel input.
  if (rows_ % kRowBlock == 0)
    data_.resize(data_.size() + kRowBlock * cols_, 0.0);
  double* block =
      data_.data() + (rows_ / kRowBlock) * kRowBlock * cols_;
  const std::size_t lane = rows_ % kRowBlock;
  for (std::size_t c = 0; c < cols_; ++c)
    block[c * kRowBlock + lane] = row[c];
  ++rows_;
}

SimdLevel activeSimdLevel() {
  return useAvx2() ? SimdLevel::avx2 : SimdLevel::scalar;
}

const char* simdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::avx2:
      return "avx2";
    case SimdLevel::scalar:
      break;
  }
  return "scalar";
}

void setForceScalar(bool force) {
  g_forceScalar.store(force, std::memory_order_relaxed);
}

void squaredDistancesScalar(const FlatMatrix& m, const double* query,
                            double* out) {
  const std::size_t cols = m.cols();
  const std::size_t blocks = m.paddedRows() / kRowBlock;
  const double* data = m.data();
  // One independent accumulator per row in the block; the column loads
  // are unit-stride thanks to the interleaved layout, so the compiler
  // can vectorize across the block's rows without reassociating any
  // single row's column order — which is what keeps the result
  // bitwise-stable across code paths.
  for (std::size_t b = 0; b < blocks; ++b) {
    const double* block = data + b * kRowBlock * cols;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      const double q = query[c];
      const double* col = block + c * kRowBlock;
      const double d0 = q - col[0];
      const double d1 = q - col[1];
      const double d2 = q - col[2];
      const double d3 = q - col[3];
      a0 += d0 * d0;
      a1 += d1 * d1;
      a2 += d2 * d2;
      a3 += d3 * d3;
    }
    out[b * kRowBlock] = a0;
    out[b * kRowBlock + 1] = a1;
    out[b * kRowBlock + 2] = a2;
    out[b * kRowBlock + 3] = a3;
  }
}

void planRowDistance(const double* query, std::size_t cols,
                     std::span<const std::uint32_t> varyingColumns,
                     const double* columnValues,
                     std::vector<PlanStep>& plan) {
  plan.clear();
  std::size_t next = 0;
  for (std::size_t c = 0; c < cols; ++c) {
    if (next < varyingColumns.size() && varyingColumns[next] == c) {
      plan.push_back(
          {static_cast<std::uint32_t>(c * kRowBlock), query[c]});
      ++next;
      continue;
    }
    const double d = query[c] - columnValues[c];
    const double term = d * d;
    // A +0.0 term leaves every sum unchanged; compared as bits, so no
    // float equality is involved.
    if (std::bit_cast<std::uint64_t>(term) != 0)
      plan.push_back({PlanStep::kConstantTerm, term});
  }
}

void plannedSquaredDistances(const FlatMatrix& m,
                             std::span<const PlanStep> plan,
                             std::span<const std::uint32_t> rows,
                             double* out) {
  const std::size_t cols = m.cols();
  const double* data = m.data();
  const auto rowBase = [&](std::uint32_t r) {
    return data + (r / kRowBlock) * kRowBlock * cols + r % kRowBlock;
  };
  // Four rows at a time: four independent accumulator chains hide the
  // add latency, and each row still adds its terms in plan order.  The
  // rows are scattered over a matrix far larger than cache, so each
  // step also prefetches its column of the next group's rows.
  std::size_t i = 0;
  for (; i + 4 <= rows.size(); i += 4) {
    const double* r0 = rowBase(rows[i]);
    const double* r1 = rowBase(rows[i + 1]);
    const double* r2 = rowBase(rows[i + 2]);
    const double* r3 = rowBase(rows[i + 3]);
    const std::size_t next = i + 8 <= rows.size() ? i + 4 : i;
    const double* n0 = rowBase(rows[next]);
    const double* n1 = rowBase(rows[next + 1]);
    const double* n2 = rowBase(rows[next + 2]);
    const double* n3 = rowBase(rows[next + 3]);
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (const PlanStep& step : plan) {
      if (step.offset == PlanStep::kConstantTerm) {
        a0 += step.value;
        a1 += step.value;
        a2 += step.value;
        a3 += step.value;
        continue;
      }
      __builtin_prefetch(n0 + step.offset);
      __builtin_prefetch(n1 + step.offset);
      __builtin_prefetch(n2 + step.offset);
      __builtin_prefetch(n3 + step.offset);
      const double d0 = step.value - r0[step.offset];
      const double d1 = step.value - r1[step.offset];
      const double d2 = step.value - r2[step.offset];
      const double d3 = step.value - r3[step.offset];
      a0 += d0 * d0;
      a1 += d1 * d1;
      a2 += d2 * d2;
      a3 += d3 * d3;
    }
    out[i] = a0;
    out[i + 1] = a1;
    out[i + 2] = a2;
    out[i + 3] = a3;
  }
  for (; i < rows.size(); ++i) {
    const double* row = rowBase(rows[i]);
    double acc = 0.0;
    for (const PlanStep& step : plan) {
      if (step.offset == PlanStep::kConstantTerm) {
        acc += step.value;
        continue;
      }
      const double d = step.value - row[step.offset];
      acc += d * d;
    }
    out[i] = acc;
  }
}

void squaredDistances(const FlatMatrix& m, const double* query,
                      double* out) {
#if MOLOC_SIMD_ENABLED
  if (useAvx2()) {
    detail::squaredDistancesAvx2(m.data(), m.paddedRows(), m.cols(),
                                 query, out);
    return;
  }
#endif
  squaredDistancesScalar(m, query, out);
}

namespace {

/// "Better" ordering for top-k: smaller distance first, ties toward
/// the lower row index.  Used as the heap's `less`, so the heap top is
/// the worst retained entry.
bool betterEntry(const TopKEntry& a, const TopKEntry& b) {
  if (a.squaredDistance != b.squaredDistance)
    return a.squaredDistance < b.squaredDistance;
  return a.row < b.row;
}

/// First index in [begin, end) with values[i] < threshold, or end.
/// The branchless block-min tree keeps the common miss case at ~one
/// compare per element with no mispredicts.
std::size_t findBelowScalar(const double* values, std::size_t begin,
                            std::size_t end, double threshold) {
  std::size_t i = begin;
  for (; i + 8 <= end; i += 8) {
    const double* d = values + i;
    const double m0 = std::min(d[0], d[1]);
    const double m1 = std::min(d[2], d[3]);
    const double m2 = std::min(d[4], d[5]);
    const double m3 = std::min(d[6], d[7]);
    if (std::min(std::min(m0, m1), std::min(m2, m3)) < threshold) {
      for (std::size_t j = i;; ++j)
        if (values[j] < threshold) return j;
    }
  }
  for (; i < end; ++i)
    if (values[i] < threshold) return i;
  return end;
}

std::size_t findBelow(const double* values, std::size_t begin,
                      std::size_t end, double threshold) {
#if MOLOC_SIMD_ENABLED
  if (useAvx2())
    return detail::findBelowAvx2(values, begin, end, threshold);
#endif
  return findBelowScalar(values, begin, end, threshold);
}

/// Replaces the heap's root (its worst entry) with `entry` and
/// restores the max-heap-by-betterEntry invariant with a single
/// sift-down — half the work of a pop_heap/push_heap pair.
void replaceWorst(std::vector<TopKEntry>& heap, const TopKEntry& entry) {
  const std::size_t n = heap.size();
  std::size_t hole = 0;
  for (;;) {
    std::size_t child = 2 * hole + 1;
    if (child >= n) break;
    if (child + 1 < n && betterEntry(heap[child], heap[child + 1]))
      ++child;  // The worse of the two children.
    if (!betterEntry(entry, heap[child])) break;
    heap[hole] = heap[child];
    hole = child;
  }
  heap[hole] = entry;
}

}  // namespace

void selectSmallestK(std::span<const double> distances, std::size_t k,
                     std::vector<TopKEntry>& out) {
  out.clear();
  if (k == 0 || distances.empty()) return;
  const std::size_t kept = std::min(k, distances.size());
  out.reserve(kept);
  for (std::size_t i = 0; i < kept; ++i) out.push_back({distances[i], i});
  std::make_heap(out.begin(), out.end(), betterEntry);
  // Steady-state scan: candidates arrive in ascending row order, so a
  // candidate tying the heap's worst distance always has the larger
  // row and loses the tie-break — replacement happens exactly when the
  // distance is strictly below the cached threshold, which lets the
  // scan between replacements run as a plain "first value below x"
  // search with a single predictable compare per element.
  double threshold = out.front().squaredDistance;
  for (std::size_t i = kept;;) {
    i = findBelow(distances.data(), i, distances.size(), threshold);
    if (i == distances.size()) break;
    replaceWorst(out, {distances[i], i});
    threshold = out.front().squaredDistance;
    ++i;
  }
  std::sort_heap(out.begin(), out.end(), betterEntry);
}

}  // namespace moloc::kernel
