// Columnar (structure-of-arrays) batches of trapezoids.
//
// The batch execution path (docs/architecture.md, "Batch execution")
// gathers the corner abscissae of up to kCapacity trapezoids into four
// contiguous double arrays so the degree kernels in degree_batch.h can
// sweep them with dense, branch-light loops that auto-vectorize under
// -O2. A fifth array receives the per-lane degrees, so a batch can be
// evaluated fully in place.
//
// A TrapezoidBatch is ~40 KiB of plain arrays: embed one per worker in
// reusable scratch state (heap-allocated), never on a hot stack frame.
// The arrays are 16-byte aligned: one SSE2 vector, and what plain
// operator new returns. Wider alignment makes every scratch an aligned
// allocation, whose extra slack keeps a query's freed scratch from
// holding the next query's, so a worker's heap grew by about 100 KiB
// per batched query and peak RSS rose.
#ifndef FUZZYDB_FUZZY_TRAPEZOID_BATCH_H_
#define FUZZYDB_FUZZY_TRAPEZOID_BATCH_H_

#include <array>
#include <cassert>
#include <cstddef>

#include "fuzzy/trapezoid.h"

namespace fuzzydb {

/// A fixed-capacity SoA batch of trapezoids plus a degree output lane.
class TrapezoidBatch {
 public:
  /// Lanes per batch in every batched operator. 1024 doubles x 5
  /// arrays stays comfortably in L2.
  static constexpr size_t kCapacity = 1024;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == kCapacity; }
  void Clear() { size_ = 0; }

  /// Appends one trapezoid; requires !full().
  void PushBack(const Trapezoid& t) {
    assert(size_ < kCapacity);
    a_[size_] = t.a();
    b_[size_] = t.b();
    c_[size_] = t.c();
    d_[size_] = t.d();
    ++size_;
  }

  /// Fills lanes [0, count) with copies of `t` (for a constant operand
  /// facing a gathered column), replacing the previous contents.
  void Splat(const Trapezoid& t, size_t count) {
    assert(count <= kCapacity);
    for (size_t i = 0; i < count; ++i) {
      a_[i] = t.a();
      b_[i] = t.b();
      c_[i] = t.c();
      d_[i] = t.d();
    }
    size_ = count;
  }

  /// Reassembles lane i as a value object (tests and slow paths).
  Trapezoid At(size_t i) const {
    assert(i < size_);
    return Trapezoid(a_[i], b_[i], c_[i], d_[i]);
  }

  const double* a() const { return a_.data(); }
  const double* b() const { return b_.data(); }
  const double* c() const { return c_.data(); }
  const double* d() const { return d_.data(); }

  /// The degree output lane; kernels write degrees()[0, size).
  double* degrees() { return degree_.data(); }
  const double* degrees() const { return degree_.data(); }

 private:
  size_t size_ = 0;
  alignas(16) std::array<double, kCapacity> a_;
  alignas(16) std::array<double, kCapacity> b_;
  alignas(16) std::array<double, kCapacity> c_;
  alignas(16) std::array<double, kCapacity> d_;
  alignas(16) std::array<double, kCapacity> degree_;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_FUZZY_TRAPEZOID_BATCH_H_
