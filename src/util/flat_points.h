// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// FlatPoints: a contiguous row-major buffer of d-dimensional points.
//
// `Point = std::vector<double>` makes every sample point its own heap
// allocation; a |R|-point sample is |R| pointer chases per query sweep and
// |R| allocations per estimator rebuild. FlatPoints stores the same data as
// one `std::vector<double>` of length rows * dimensions, so a sweep is a
// single linear scan and a rebuild into a warm buffer performs zero
// per-point allocations (Reset() keeps capacity). Rows are addressed by
// index; PointView is a cheap non-owning accessor for code that wants
// point-shaped reads without materializing a Point.
//
// The container is dumb on purpose: it owns layout, not meaning. Ordering
// policy (the KDE's canonical sort) lives with the caller, which drives
// SortRows() with its own comparator; SortRows is an in-place heapsort over
// row swaps — deterministic for a deterministic comparator, zero
// allocations, no stability guarantee (callers needing a canonical order
// must use a comparator whose ties are interchangeable rows).

#ifndef SENSORD_UTIL_FLAT_POINTS_H_
#define SENSORD_UTIL_FLAT_POINTS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/check.h"
#include "util/math_utils.h"

namespace sensord {

/// Non-owning view of one row of a FlatPoints buffer (or any contiguous
/// coordinate array). Valid only while the underlying storage is.
class PointView {
 public:
  PointView(const double* coords, size_t dimensions)
      : coords_(coords), dimensions_(dimensions) {}

  size_t size() const { return dimensions_; }
  const double* data() const { return coords_; }
  double operator[](size_t i) const {
    SENSORD_DCHECK_LT(i, dimensions_);
    return coords_[i];
  }
  const double* begin() const { return coords_; }
  const double* end() const { return coords_ + dimensions_; }

  /// Materializes the row as an owning Point (allocates).
  Point ToPoint() const { return Point(coords_, coords_ + dimensions_); }

 private:
  const double* coords_;
  size_t dimensions_;
};

/// Row-major matrix of `size()` points by `dimensions()` coordinates in one
/// contiguous double buffer.
class FlatPoints {
 public:
  FlatPoints() = default;
  explicit FlatPoints(size_t dimensions) : dimensions_(dimensions) {}

  /// Builds a flat copy of `points`. Pre: every point has the same
  /// dimensionality (that of the first; an empty input yields dimensions 0).
  static FlatPoints FromPoints(const std::vector<Point>& points);

  /// Drops all rows and sets the stride, keeping the existing heap
  /// capacity — the warm-buffer entry point for zero-allocation refills.
  void Reset(size_t dimensions) {
    dimensions_ = dimensions;
    coords_.clear();
  }

  /// Reserves capacity for `rows` rows at the current stride.
  void Reserve(size_t rows) { coords_.reserve(rows * dimensions_); }

  size_t dimensions() const { return dimensions_; }
  size_t size() const {
    return dimensions_ == 0 ? 0 : coords_.size() / dimensions_;
  }
  bool empty() const { return coords_.empty(); }

  /// Appends one row. Pre: p.size() == dimensions().
  void Append(const Point& p) {
    SENSORD_DCHECK_EQ(p.size(), dimensions_);
    coords_.insert(coords_.end(), p.begin(), p.end());
  }

  /// Appends an uninitialized row and returns a pointer to its
  /// `dimensions()` coordinates for the caller to fill.
  double* AppendRow() {
    const size_t offset = coords_.size();
    coords_.resize(offset + dimensions_);
    return coords_.data() + offset;
  }

  double At(size_t row, size_t i) const {
    SENSORD_DCHECK_LT(i, dimensions_);
    return coords_[row * dimensions_ + i];
  }
  const double* Row(size_t row) const {
    SENSORD_DCHECK_LT(row, size());
    return coords_.data() + row * dimensions_;
  }
  double* MutableRow(size_t row) {
    SENSORD_DCHECK_LT(row, size());
    return coords_.data() + row * dimensions_;
  }
  PointView View(size_t row) const {
    return PointView(Row(row), dimensions_);
  }
  Point ToPoint(size_t row) const { return View(row).ToPoint(); }

  /// Materializes every row as an owning Point (allocates; test/debug aid).
  std::vector<Point> ToPoints() const;

  /// The raw coordinate buffer, row-major.
  const std::vector<double>& data() const { return coords_; }

  /// Heap bytes held by the coordinate buffer (its capacity, not its size).
  size_t ResidentBytes() const { return coords_.capacity() * sizeof(double); }

  /// Mutable access to the raw buffer for in-place reordering (e.g.
  /// std::sort of a 1-d sample). The caller must keep the length a multiple
  /// of dimensions() and may only permute coordinates within/between rows.
  std::vector<double>* mutable_data() { return &coords_; }

  void SwapRows(size_t a, size_t b) {
    double* ra = coords_.data() + a * dimensions_;
    double* rb = coords_.data() + b * dimensions_;
    for (size_t i = 0; i < dimensions_; ++i) std::swap(ra[i], rb[i]);
  }

  /// In-place heapsort of the rows under `less(row_a, row_b)` (a strict weak
  /// order over *current* row indices). Deterministic for a deterministic
  /// comparator and allocation-free; not stable — rows that compare
  /// equivalent may land in any relative order, so comparators defining a
  /// canonical order must make ties fully interchangeable.
  template <typename LessRows>
  void SortRows(LessRows less) {
    const size_t n = size();
    if (n < 2) return;
    for (size_t start = n / 2; start-- > 0;) SiftDown(start, n, less);
    for (size_t end = n - 1; end > 0; --end) {
      SwapRows(0, end);
      SiftDown(0, end, less);
    }
  }

  friend bool operator==(const FlatPoints& a, const FlatPoints& b) {
    return a.dimensions_ == b.dimensions_ && a.coords_ == b.coords_;
  }
  friend bool operator!=(const FlatPoints& a, const FlatPoints& b) {
    return !(a == b);
  }

 private:
  template <typename LessRows>
  void SiftDown(size_t root, size_t end, LessRows& less) {
    while (true) {
      size_t child = 2 * root + 1;
      if (child >= end) return;
      if (child + 1 < end && less(child, child + 1)) ++child;
      if (!less(root, child)) return;
      SwapRows(root, child);
      root = child;
    }
  }

  std::vector<double> coords_;
  size_t dimensions_ = 0;
};

}  // namespace sensord

#endif  // SENSORD_UTIL_FLAT_POINTS_H_
