// Fuzzy tuples: attribute values plus a membership degree.
#ifndef FUZZYDB_RELATIONAL_TUPLE_H_
#define FUZZYDB_RELATIONAL_TUPLE_H_

#include <string>
#include <vector>

#include "relational/value.h"

namespace fuzzydb {

/// A tuple of a fuzzy relation. `degree` is the system-supplied membership
/// attribute D in (0, 1]: the possibility that the tuple belongs to the
/// concept the relation represents (Section 2.2). A tuple is "in" a
/// relation iff degree > 0.
class Tuple {
 public:
  Tuple() = default;
  Tuple(std::vector<Value> values, double degree)
      : values_(std::move(values)), degree_(degree) {}

  size_t NumValues() const { return values_.size(); }
  const Value& ValueAt(size_t i) const { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  double degree() const { return degree_; }
  void set_degree(double d) { degree_ = d; }

  /// Identical attribute values (degree ignored); the duplicate criterion.
  bool SameValues(const Tuple& other) const;

  /// Concatenation of this tuple's values with another's; the degree of
  /// the result is min(degree, other.degree) (fuzzy AND of memberships).
  Tuple Concat(const Tuple& other) const;

  /// The sub-tuple with the given column indexes, keeping the degree.
  Tuple Project(const std::vector<size_t>& indexes) const;

  std::string ToString() const;

 private:
  std::vector<Value> values_;
  double degree_ = 1.0;
};

/// Orders tuples by value content: Value::TotalOrderCompare column by
/// column, the shorter tuple first on a common prefix. Duplicates
/// (SameValues) compare equal; the grouping and set-operation order.
struct TupleValueLess {
  bool operator()(const Tuple& a, const Tuple& b) const;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_RELATIONAL_TUPLE_H_
