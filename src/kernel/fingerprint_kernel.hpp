#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace moloc::kernel {

/// Rows per interleaved block: storage groups this many rows together,
/// and the vectorized kernels process one SIMD lane per row in the
/// block.
inline constexpr std::size_t kRowBlock = 4;

/// Blocked row-interleaved (AoSoA) storage for the fingerprint radio
/// map — the data-oriented layout behind the matching hot path.
///
/// Rows are grouped into blocks of kRowBlock; within a block the
/// values are column-major, so column c of the block's four rows is
/// one contiguous run of kRowBlock doubles:
///
///   data[block * kRowBlock * cols + c * kRowBlock + lane]
///     == element (block * kRowBlock + lane, c)
///
/// A squared-distance kernel can then load column c of four rows with
/// a single vector load instead of four strided scalar loads, while
/// each row's accumulation still walks columns sequentially — the same
/// order as a plain per-row scalar loop, which is what keeps results
/// bitwise-identical across code paths.
///
/// The trailing partial block is zero-padded: kernels always process
/// whole blocks, and the padded rows' outputs (a deterministic, finite
/// sum of query squares) are simply never read.
class FlatMatrix {
 public:
  FlatMatrix() = default;

  /// A non-owning view over an externally owned blocked buffer — the
  /// zero-copy path of the mmap venue image (src/image).  `data` must
  /// hold paddedRows * cols doubles in exactly the layout described
  /// above (including the zero-padded trailing block) and must outlive
  /// the matrix and every copy of it.  A view is immutable: reset()
  /// and appendRow() throw util::StateError.
  static FlatMatrix view(const double* data, std::size_t rows,
                         std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }

  /// True when this matrix borrows external storage (see view()).
  bool isView() const { return borrowed_ != nullptr; }

  /// rows() rounded up to a whole number of blocks — the number of
  /// distance outputs a kernel writes.
  std::size_t paddedRows() const {
    return (rows_ + kRowBlock - 1) / kRowBlock * kRowBlock;
  }

  const double* data() const {
    return borrowed_ != nullptr ? borrowed_ : data_.data();
  }

  /// Element access through the interleaved layout (row gathers and
  /// the index build; the kernels index the raw block layout directly).
  double at(std::size_t row, std::size_t col) const {
    return data()[(row / kRowBlock) * kRowBlock * cols_ +
                  col * kRowBlock + row % kRowBlock];
  }

  /// Drops all rows and fixes the column count.  Throws
  /// std::logic_error on a view.
  void reset(std::size_t cols);

  /// Appends one row; `row.size()` must equal cols() (throws
  /// std::invalid_argument otherwise, std::logic_error on a view).
  void appendRow(std::span<const double> row);

 private:
  std::vector<double> data_;
  /// Set iff this matrix is a view; owning matrices read data_ so the
  /// default copy/move semantics stay correct (a copied view stays a
  /// shallow view, a copied owner re-points at its own buffer).
  const double* borrowed_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

/// Which code path squaredDistances() dispatches to on this machine
/// and build.
enum class SimdLevel { scalar, avx2 };
SimdLevel activeSimdLevel();
const char* simdLevelName(SimdLevel level);

/// Test hook: forces the scalar path even when the AVX2 path is
/// compiled in and supported.  Not for concurrent use with running
/// kernels (tests toggle it single-threaded).
void setForceScalar(bool force);

/// out[r] = sum_c (query[c] - m[r][c])^2 for every row, accumulated
/// sequentially over columns per row — the same order as a plain
/// scalar loop, so every dispatch target returns bitwise-identical
/// results.  `query` must hold cols() doubles; `out` must hold
/// paddedRows() doubles (the padded tail's outputs are deterministic
/// garbage — see FlatMatrix).
void squaredDistances(const FlatMatrix& m, const double* query,
                      double* out);

/// The scalar reference the dispatched paths are tested against.
void squaredDistancesScalar(const FlatMatrix& m, const double* query,
                            double* out);

/// One step of a row-distance plan (see planRowDistance).
struct PlanStep {
  /// Marks a step whose `value` is a precomputed term.
  static constexpr std::uint32_t kConstantTerm = 0xFFFFFFFFu;
  /// kRowBlock * column for a column read from the row, else
  /// kConstantTerm.
  std::uint32_t offset = kConstantTerm;
  /// The query value of a read column, or the constant term itself.
  double value = 0.0;
};

/// Plans the squared distance from `query` to rows that hold
/// `columnValues[c]` (bit for bit) in every column c not listed in
/// `varyingColumns` (strictly increasing).  Columns are planned in
/// order: a varying column is read from the row; any other column
/// contributes (query[c] - columnValues[c])^2, computed here once and
/// dropped when it is exactly +0.0.  Every term is >= +0.0 and
/// acc + (+0.0) == acc for acc >= +0.0, so a planned row sum adds the
/// same non-zero terms in the same order as squaredDistances — the
/// result is bitwise the exact distance.  `query` and `columnValues`
/// hold `cols` doubles; `plan` is cleared first.
void planRowDistance(const double* query, std::size_t cols,
                     std::span<const std::uint32_t> varyingColumns,
                     const double* columnValues,
                     std::vector<PlanStep>& plan);

/// out[i] = squaredDistances(m, query)[rows[i]], bitwise, for a `plan`
/// built by planRowDistance from that query over rows that satisfy
/// its column profile.  Reads only the planned columns of the listed
/// rows, in place; every rows[i] must be < m.rows().  Scalar on every
/// build (no FMA, the same two roundings per term as the reference).
void plannedSquaredDistances(const FlatMatrix& m,
                             std::span<const PlanStep> plan,
                             std::span<const std::uint32_t> rows,
                             double* out);

/// One top-k candidate: a squared distance and the row it came from.
struct TopKEntry {
  double squaredDistance = 0.0;
  std::size_t row = 0;
};

/// Selects the k smallest distances (ties broken toward the lower row
/// index) into `out`, ascending, using a bounded max-heap — O(n log k)
/// and no n-sized materialization, unlike a full partial_sort.
/// Returns fewer than k entries when n < k.
void selectSmallestK(std::span<const double> distances, std::size_t k,
                     std::vector<TopKEntry>& out);

/// Reusable scratch for a query against a FlatMatrix, so the serving
/// hot path performs no per-call allocations once warm.
struct QueryWorkspace {
  std::vector<double> distances;
  std::vector<TopKEntry> topk;
};

}  // namespace moloc::kernel
