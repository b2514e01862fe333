#include "relational/tuple.h"

#include <algorithm>

#include "common/string_util.h"

namespace fuzzydb {

bool Tuple::SameValues(const Tuple& other) const {
  if (values_.size() != other.values_.size()) return false;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (!values_[i].Identical(other.values_[i])) return false;
  }
  return true;
}

Tuple Tuple::Concat(const Tuple& other) const {
  std::vector<Value> combined = values_;
  combined.insert(combined.end(), other.values_.begin(), other.values_.end());
  return Tuple(std::move(combined), std::min(degree_, other.degree_));
}

Tuple Tuple::Project(const std::vector<size_t>& indexes) const {
  std::vector<Value> projected;
  projected.reserve(indexes.size());
  for (size_t i : indexes) projected.push_back(values_[i]);
  return Tuple(std::move(projected), degree_);
}

bool TupleValueLess::operator()(const Tuple& a, const Tuple& b) const {
  const size_t n = std::min(a.NumValues(), b.NumValues());
  for (size_t i = 0; i < n; ++i) {
    const int cmp = a.ValueAt(i).TotalOrderCompare(b.ValueAt(i));
    if (cmp != 0) return cmp < 0;
  }
  return a.NumValues() < b.NumValues();
}

std::string Tuple::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    values_[i].AppendTo(&out);
  }
  out += " | D=";
  AppendDouble(degree_, 4, &out);
  out += ']';
  return out;
}

}  // namespace fuzzydb
