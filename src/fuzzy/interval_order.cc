#include "fuzzy/interval_order.h"

#include <algorithm>
#include <limits>

#include "fuzzy/degree_kernels.h"

namespace fuzzydb {

std::vector<double> PrefixMaxEnds(const std::vector<SupportBounds>& inner) {
  std::vector<double> end_max(inner.size());
  double running = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < inner.size(); ++i) {
    running = std::max(running, inner[i].end);
    end_max[i] = running;
  }
  return end_max;
}

size_t RngSeekStart(const std::vector<double>& end_max, double prev_begin) {
  return static_cast<size_t>(
      std::lower_bound(end_max.begin(), end_max.end(), prev_begin) -
      end_max.begin());
}

int CompareIntervalOrder(const Trapezoid& x, const Trapezoid& y) {
  return kernel::CompareIntervalOrderLane(x.SupportBegin(), x.SupportEnd(),
                                          y.SupportBegin(), y.SupportEnd());
}

bool IntervalOrderLess(const Trapezoid& x, const Trapezoid& y) {
  return CompareIntervalOrder(x, y) < 0;
}

bool SupportsIntersect(const Trapezoid& x, const Trapezoid& y) {
  return kernel::SupportsIntersectLane(x.SupportBegin(), x.SupportEnd(),
                                       y.SupportBegin(), y.SupportEnd());
}

bool SupportEntirelyBefore(const Trapezoid& x, const Trapezoid& y) {
  return kernel::SupportEntirelyBeforeLane(x.SupportEnd(), y.SupportBegin());
}

void BatchCompareIntervalOrder(const TrapezoidBatch& xs, const Trapezoid& y,
                               int* out) {
  const size_t n = xs.size();
  const double* a = xs.a();
  const double* d = xs.d();
  const double ya = y.SupportBegin();
  const double yd = y.SupportEnd();
  for (size_t i = 0; i < n; ++i) {
    out[i] = kernel::CompareIntervalOrderLane(a[i], d[i], ya, yd);
  }
}

void BatchSupportsIntersect(const TrapezoidBatch& xs, const Trapezoid& y,
                            unsigned char* out) {
  const size_t n = xs.size();
  const double* a = xs.a();
  const double* d = xs.d();
  const double ya = y.SupportBegin();
  const double yd = y.SupportEnd();
  for (size_t i = 0; i < n; ++i) {
    out[i] = kernel::SupportsIntersectLane(a[i], d[i], ya, yd) ? 1 : 0;
  }
}

void BatchSupportEntirelyBefore(const TrapezoidBatch& xs, const Trapezoid& y,
                                unsigned char* out) {
  const size_t n = xs.size();
  const double* d = xs.d();
  const double ya = y.SupportBegin();
  for (size_t i = 0; i < n; ++i) {
    out[i] = kernel::SupportEntirelyBeforeLane(d[i], ya) ? 1 : 0;
  }
}

}  // namespace fuzzydb
