// Sparse (CSR-by-client) storage for the traffic matrix P.
//
// The latency bound l_{c,n} > T makes most of P structurally zero: a client
// may only route to its latency-feasible replicas, so the decision variable
// really lives on the feasible pairs, not on the full |C|x|N| grid.  This
// header provides the two pieces the sparse solve paths share:
//
//  * SparsityPattern — the immutable index structure of the feasible pairs,
//    viewable both row-wise (CSR: per-client feasible replica list) and
//    column-wise (per-replica client list, with the position of each entry
//    in the row-major value array).  Built once per Problem and shared by
//    every allocation over it.
//  * SparseAllocation — one value per feasible pair, laid out row-major
//    (client-major), over a shared pattern.  Mirrors the handful of Matrix
//    helpers the solvers use (axpy, scale, distance, col_sum) on the
//    compact storage.
//
// Values on infeasible pairs are *structural* zeros: they do not exist, so
// projections, gradients and wire frames never touch them.  The iterative
// engines (CDPSM, LDDM, ADMM) keep all their iterates in these types; dense
// Matrix allocations remain the currency of everything around them (see
// DESIGN.md §12).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/matrix.hpp"

namespace edr::common {

/// Immutable index structure of the feasible (client, replica) pairs.
class SparsityPattern {
 public:
  SparsityPattern() = default;

  /// Build from a dense 0/1 mask (rows = clients, cols = replicas): entry
  /// (r, c) is present iff mask(r, c) != 0.  Column entries are ordered by
  /// ascending row so sparse column reductions add in the same order as the
  /// dense row-major sweeps.
  explicit SparsityPattern(const Matrix& mask);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return col_of_.size(); }

  /// Number of entries in row r / the row's slice bounds in value space.
  [[nodiscard]] std::size_t row_begin(std::size_t r) const {
    return row_ptr_[r];
  }
  [[nodiscard]] std::size_t row_end(std::size_t r) const {
    return row_ptr_[r + 1];
  }
  [[nodiscard]] std::size_t row_nnz(std::size_t r) const {
    return row_ptr_[r + 1] - row_ptr_[r];
  }
  /// Column ids of row r's entries (parallel to the row's value slice).
  [[nodiscard]] std::span<const std::uint32_t> row_cols(std::size_t r) const {
    return {col_of_.data() + row_ptr_[r], row_nnz(r)};
  }

  /// Number of entries in column c / the column's slice bounds.
  [[nodiscard]] std::size_t col_begin(std::size_t c) const {
    return col_ptr_[c];
  }
  [[nodiscard]] std::size_t col_end(std::size_t c) const {
    return col_ptr_[c + 1];
  }
  [[nodiscard]] std::size_t col_nnz(std::size_t c) const {
    return col_ptr_[c + 1] - col_ptr_[c];
  }
  /// Row ids of column c's entries, ascending (parallel to col_positions).
  [[nodiscard]] std::span<const std::uint32_t> col_rows(std::size_t c) const {
    return {row_of_.data() + col_ptr_[c], col_nnz(c)};
  }
  /// Positions in the row-major value array of column c's entries.
  [[nodiscard]] std::span<const std::uint32_t> col_positions(
      std::size_t c) const {
    return {pos_.data() + col_ptr_[c], col_nnz(c)};
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint32_t> row_ptr_;  // rows + 1
  std::vector<std::uint32_t> col_of_;   // nnz, column id per row-major entry
  std::vector<std::uint32_t> col_ptr_;  // cols + 1
  std::vector<std::uint32_t> row_of_;   // nnz, row id per column-major entry
  std::vector<std::uint32_t> pos_;      // nnz, row-major position per
                                        // column-major entry
};

/// A traffic matrix restricted to a pattern's feasible pairs.
class SparseAllocation {
 public:
  SparseAllocation() = default;
  explicit SparseAllocation(std::shared_ptr<const SparsityPattern> pattern)
      : pattern_(std::move(pattern)), values_(pattern_->nnz(), 0.0) {}

  [[nodiscard]] const SparsityPattern& pattern() const { return *pattern_; }
  [[nodiscard]] const std::shared_ptr<const SparsityPattern>& pattern_ptr()
      const {
    return pattern_;
  }
  [[nodiscard]] bool empty() const { return pattern_ == nullptr; }
  [[nodiscard]] std::size_t rows() const { return pattern_->rows(); }
  [[nodiscard]] std::size_t cols() const { return pattern_->cols(); }

  /// Flat row-major value storage (one double per feasible pair).
  [[nodiscard]] std::span<double> values() {
    return {values_.data(), values_.size()};
  }
  [[nodiscard]] std::span<const double> values() const {
    return {values_.data(), values_.size()};
  }

  /// Row r's compact value slice (parallel to pattern().row_cols(r)).
  [[nodiscard]] std::span<double> row(std::size_t r) {
    return {values_.data() + pattern_->row_begin(r), pattern_->row_nnz(r)};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    return {values_.data() + pattern_->row_begin(r), pattern_->row_nnz(r)};
  }

  [[nodiscard]] double row_sum(std::size_t r) const {
    double sum = 0.0;
    for (const double v : row(r)) sum += v;
    return sum;
  }

  /// Column sum over the feasible entries, ascending-row order (matches the
  /// dense row-major col_sum bit for bit: the skipped entries are exact
  /// zeros there).
  [[nodiscard]] double col_sum(std::size_t c) const {
    double sum = 0.0;
    for (const std::uint32_t p : pattern_->col_positions(c)) sum += values_[p];
    return sum;
  }

  /// All column sums at once, one pass; `sums` is assigned to cols().
  void col_sums(std::vector<double>& sums) const;

  void fill(double value) {
    for (double& v : values_) v = value;
  }

  void scale(double factor) {
    for (double& v : values_) v *= factor;
  }

  /// this += scale * other (same pattern required).  kScalar (default) is
  /// the byte-pinned path; kAuto may fuse multiply-add (each entry within
  /// the product's rounding error of the scalar result).
  void axpy(double scale, const SparseAllocation& other,
            simd::Mode mode = simd::Mode::kScalar) {
    assert(pattern_.get() == other.pattern_.get());
    simd::axpy(mode, values(), scale, other.values());
  }

  [[nodiscard]] double distance(const SparseAllocation& other,
                                simd::Mode mode = simd::Mode::kScalar) const;

  /// Scatter into a dense rows() x cols() matrix (structural zeros
  /// elsewhere).  `out` is reshaped in place.
  void to_dense(Matrix& out) const;

  /// Gather from a dense matrix; mass on infeasible pairs is dropped
  /// (callers that care assert with check_feasibility first).
  void from_dense(const Matrix& dense);

 private:
  std::shared_ptr<const SparsityPattern> pattern_;
  std::vector<double> values_;
};

}  // namespace edr::common
