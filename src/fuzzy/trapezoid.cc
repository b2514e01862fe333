#include "fuzzy/trapezoid.h"

#include <cassert>

#include "common/string_util.h"

namespace fuzzydb {

Trapezoid::Trapezoid(double a, double b, double c, double d)
    : a_(a), b_(b), c_(c), d_(d) {
  assert(a <= b && b <= c && c <= d && "trapezoid corners must be ordered");
}

double Trapezoid::Membership(double x) const {
  if (x < a_ || x > d_) return 0.0;
  if (x >= b_ && x <= c_) return 1.0;
  if (x < b_) return (x - a_) / (b_ - a_);  // a_ < b_ here, division safe
  return (d_ - x) / (d_ - c_);              // c_ < d_ here
}

double Trapezoid::SupAtOrBelow(double x) const {
  if (x < a_) return 0.0;
  if (x >= b_) return 1.0;
  // a_ <= x < b_ implies a_ < b_.
  return (x - a_) / (b_ - a_);
}

double Trapezoid::SupStrictlyBelow(double x) const {
  if (x <= a_) return 0.0;
  if (x > b_) return 1.0;
  if (a_ == b_) return 1.0;  // x > a_ == b_ handled above; here x == b_ > a_?
  // a_ < x <= b_: supremum of the rising edge approaching x.
  return (x - a_) / (b_ - a_);
}

double Trapezoid::SupAtOrAbove(double x) const {
  if (x > d_) return 0.0;
  if (x <= c_) return 1.0;
  // c_ < x <= d_ implies c_ < d_.
  return (d_ - x) / (d_ - c_);
}

double Trapezoid::SupStrictlyAbove(double x) const {
  if (x >= d_) return 0.0;
  if (x < c_) return 1.0;
  if (c_ == d_) return 1.0;  // x < d_ == c_ handled above.
  return (d_ - x) / (d_ - c_);
}

std::string Trapezoid::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Trapezoid::AppendTo(std::string* out) const {
  if (IsCrisp()) return AppendDouble(a_, 6, out);
  const double corners[] = {a_, b_, c_, d_};
  for (int i = 0; i < 4; ++i) {
    out->append(i == 0 ? "trap(" : ",");
    AppendDouble(corners[i], 6, out);
  }
  out->push_back(')');
}

}  // namespace fuzzydb
