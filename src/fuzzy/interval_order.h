// The linear order on fuzzy values used by the extended merge-join.
//
// Definition 3.1 of the paper: each data value v represents the interval
// [b(v), e(v)] on which its membership function is positive (for a crisp
// value, b(v) = e(v) = v). Values are ordered lexicographically by
// (b(v), e(v)):
//
//   v1 < v2  iff  b(v1) < b(v2), or b(v1) = b(v2) and e(v1) < e(v2).
//
// Tuples are ordered with respect to a join attribute X by the order of
// their X values. Two values can only have a positive equality degree when
// their intervals intersect, which is what makes the merge-join's window
// scan (Definition 3.2) correct. RngCursor below is that scan, shared by
// every in-memory merge join.
#ifndef FUZZYDB_FUZZY_INTERVAL_ORDER_H_
#define FUZZYDB_FUZZY_INTERVAL_ORDER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fuzzy/trapezoid.h"
#include "fuzzy/trapezoid_batch.h"

namespace fuzzydb {

/// The support interval [b(v), e(v)] of a join-key value, hoisted out of
/// the window scan: the scan tests every pair, and re-deriving the bounds
/// from the stored value per pair dominated its cost.
struct SupportBounds {
  double begin = 0.0;
  double end = 0.0;

  static SupportBounds Of(const Trapezoid& v) {
    return SupportBounds{v.SupportBegin(), v.SupportEnd()};
  }
};

/// The inner positions [lo, hi) of one window Rng(r).
struct RngWindow {
  size_t lo = 0;
  size_t hi = 0;
};

/// The window scan of the extended merge join (Definition 3.2). `inner`
/// holds the inner input's key bounds in interval order; outer keys are
/// fed to Next() in interval order too. For each outer key r, Next()
/// retires inner values whose support ends before b(r) -- no later outer
/// key can meet them -- then extends the window to the first inner value
/// beginning after e(r). Every inner value whose support meets r's lies
/// in the returned window; values inside it may still miss r (a wide
/// earlier value holds the window start back), so callers evaluate each
/// pair.
///
/// Counting: one comparison per retire test and one per window-end test,
/// including the failing test that stops each loop; added to
/// *comparisons unless it is null.
class RngCursor {
 public:
  /// `start` is where the retire loop resumes: 0 for a serial scan, or
  /// RngSeekStart() for a scan that begins mid-way through the outer.
  RngCursor(const std::vector<SupportBounds>& inner, uint64_t* comparisons,
            size_t start = 0)
      : inner_(inner.data()),
        size_(inner.size()),
        start_(start),
        comparisons_(comparisons) {}

  RngWindow Next(const SupportBounds& r) {
    const size_t from = start_;
    size_t lo = from;
    while (lo < size_ && inner_[lo].end < r.begin) ++lo;
    size_t hi = lo;
    while (hi < size_ && !(inner_[hi].begin > r.end)) ++hi;
    start_ = lo;
    if (comparisons_ != nullptr) {
      *comparisons_ += (lo - from) + (lo < size_ ? 1 : 0) + (hi - lo) +
                       (hi < size_ ? 1 : 0);
    }
    return RngWindow{lo, hi};
  }

 private:
  const SupportBounds* inner_;
  size_t size_;
  size_t start_;
  uint64_t* comparisons_;
};

/// Running maxima of the inner support ends: out[i] = max e over
/// inner[0..i]. Raw ends are not monotone under the interval order; their
/// prefix maxima are, which is what RngSeekStart searches.
std::vector<double> PrefixMaxEnds(const std::vector<SupportBounds>& inner);

/// The retire position a serial RngCursor holds after the outer key
/// whose support begins at `prev_begin`: min{i : e(inner[i]) >=
/// prev_begin}, found by an uncounted binary search over
/// PrefixMaxEnds(inner). A cursor started there with the outer keys that
/// follow yields the serial scan's windows and comparison counts.
size_t RngSeekStart(const std::vector<double>& end_max, double prev_begin);

/// Three-way comparison under Definition 3.1: negative when x precedes y,
/// 0 when the intervals coincide, positive when x succeeds y.
int CompareIntervalOrder(const Trapezoid& x, const Trapezoid& y);

/// x strictly precedes y in the interval order.
bool IntervalOrderLess(const Trapezoid& x, const Trapezoid& y);

/// True when the supports [b(x), e(x)] and [b(y), e(y)] intersect; a
/// positive equality degree requires this.
bool SupportsIntersect(const Trapezoid& x, const Trapezoid& y);

/// True when the whole support of x lies strictly before the support of y
/// (e(x) < b(y)); such an x can never equal y and, in a sorted scan, no
/// later value can either.
bool SupportEntirelyBefore(const Trapezoid& x, const Trapezoid& y);

// Batch counterparts, one lane per trapezoid of `xs` against the probe
// `y`. Each lane agrees exactly with its scalar function above (the
// loops share the per-lane arithmetic; see fuzzy/degree_kernels.h).
// The output arrays must have room for xs.size() entries.

/// out[i] = CompareIntervalOrder(xs[i], y).
void BatchCompareIntervalOrder(const TrapezoidBatch& xs, const Trapezoid& y,
                               int* out);

/// out[i] = SupportsIntersect(xs[i], y) as 0/1.
void BatchSupportsIntersect(const TrapezoidBatch& xs, const Trapezoid& y,
                            unsigned char* out);

/// out[i] = SupportEntirelyBefore(xs[i], y) as 0/1.
void BatchSupportEntirelyBefore(const TrapezoidBatch& xs, const Trapezoid& y,
                                unsigned char* out);

}  // namespace fuzzydb

#endif  // FUZZYDB_FUZZY_INTERVAL_ORDER_H_
