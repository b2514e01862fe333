// Trapezoidal possibility distributions.
//
// The paper (Section 2.1) restricts attribute-value possibility
// distributions to trapezoidal membership functions; triangles, intervals
// and crisp points are degenerate trapezoids. A trapezoid is described by
// four abscissae a <= b <= c <= d:
//
//     mu(x) = 0                  for x < a or x > d
//     mu(x) = (x - a) / (b - a)  for a <= x < b          (rising edge)
//     mu(x) = 1                  for b <= x <= c         (core / 1-cut)
//     mu(x) = (d - x) / (d - c)  for c < x <= d          (falling edge)
//
// The support (0-cut closure) is [a, d]; the core (1-cut) is [b, c]. When
// an edge is vertical (a == b or c == d) the membership function jumps and
// the value at the corner belongs to the core, matching the convention
// used by the paper's crisp-value distribution mu_v(x) = 1 iff x == v.
#ifndef FUZZYDB_FUZZY_TRAPEZOID_H_
#define FUZZYDB_FUZZY_TRAPEZOID_H_

#include <string>

namespace fuzzydb {

/// A trapezoidal possibility distribution over the reals.
class Trapezoid {
 public:
  /// Constructs the crisp value 0.
  Trapezoid() : a_(0), b_(0), c_(0), d_(0) {}

  /// Constructs a trapezoid; requires a <= b <= c <= d (asserted).
  Trapezoid(double a, double b, double c, double d);

  /// A crisp (completely known) value v: all four corners equal v.
  static Trapezoid Crisp(double v) { return Trapezoid(v, v, v, v); }

  /// A rectangular distribution: every point of [lo, hi] fully possible.
  static Trapezoid Interval(double lo, double hi) {
    return Trapezoid(lo, lo, hi, hi);
  }

  /// A triangular distribution peaking at `peak` with the given support.
  static Trapezoid Triangle(double lo, double peak, double hi) {
    return Trapezoid(lo, peak, peak, hi);
  }

  /// "About v": a symmetric triangle with support [v - spread, v + spread].
  static Trapezoid About(double v, double spread) {
    return Triangle(v - spread, v, v + spread);
  }

  double a() const { return a_; }
  double b() const { return b_; }
  double c() const { return c_; }
  double d() const { return d_; }

  /// Left end of the support: the b(v) of Definition 3.1.
  double SupportBegin() const { return a_; }
  /// Right end of the support: the e(v) of Definition 3.1.
  double SupportEnd() const { return d_; }
  /// Width of the support interval.
  double SupportWidth() const { return d_ - a_; }

  /// True when the distribution is a single completely-known point.
  bool IsCrisp() const { return a_ == d_; }
  /// The crisp value; only meaningful when IsCrisp().
  double CrispValue() const { return a_; }

  /// Membership degree at x (vertical edges evaluate to 1 at the corner).
  double Membership(double x) const;

  /// sup over { mu(t) : t <= x }. Nondecreasing in x; used to evaluate
  /// order comparisons Poss(X <= Y).
  double SupAtOrBelow(double x) const;

  /// sup over { mu(t) : t < x }. Differs from SupAtOrBelow only at a
  /// vertical rising edge, where the supremum just below the corner is 0.
  double SupStrictlyBelow(double x) const;

  /// sup over { mu(t) : t >= x }.
  double SupAtOrAbove(double x) const;

  /// sup over { mu(t) : t > x }.
  double SupStrictlyAbove(double x) const;

  /// Center of the 1-cut, (b + c) / 2. The defuzzification used by the
  /// Fuzzy SQL MIN/MAX aggregates (Section 6).
  double CoreCenter() const { return 0.5 * (b_ + c_); }

  /// Left end of the closed alpha-cut { x : mu(x) >= alpha } for
  /// alpha in (0, 1]; AlphaCutBegin(0) is the support begin. Two values
  /// can only be equal with degree >= alpha when their alpha-cuts
  /// intersect -- the "fuzzy equality indicator" of Zhang & Wang [42]
  /// that lets a thresholded merge-join use tighter windows.
  double AlphaCutBegin(double alpha) const { return a_ + alpha * (b_ - a_); }
  /// Right end of the closed alpha-cut.
  double AlphaCutEnd(double alpha) const { return d_ - alpha * (d_ - c_); }

  /// Exact representation equality (same four corners).
  bool operator==(const Trapezoid& other) const {
    return a_ == other.a_ && b_ == other.b_ && c_ == other.c_ &&
           d_ == other.d_;
  }
  bool operator!=(const Trapezoid& other) const { return !(*this == other); }

  /// "v" for crisp values, "trap(a,b,c,d)" otherwise.
  std::string ToString() const;
  /// Appends ToString() to *out.
  void AppendTo(std::string* out) const;

 private:
  double a_, b_, c_, d_;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_FUZZY_TRAPEZOID_H_
