#include "relational/relation.h"

#include <algorithm>
#include <atomic>

#include "common/string_util.h"

namespace fuzzydb {

uint64_t Relation::NextId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Relation::NextVersion() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Relation Relation::CopyForWrite() const {
  Relation copy(*this);       // deep content copy (fresh id, version 0)
  copy.id_ = id_;             // ...but keep the chain identity
  copy.version_ = NextVersion();
  return copy;
}

std::vector<Tuple> DistinctMaxDegree(std::vector<RowRef> rows,
                                     const std::vector<size_t>* columns,
                                     double min_degree) {
  // Three-way TupleValueLess of two rows' projections.
  auto compare = [columns](const Tuple& a, const Tuple& b) {
    const size_t wa = columns == nullptr ? a.NumValues() : columns->size();
    const size_t wb = columns == nullptr ? b.NumValues() : columns->size();
    for (size_t k = 0; k < std::min(wa, wb); ++k) {
      const size_t col = columns == nullptr ? k : (*columns)[k];
      const int cmp = a.ValueAt(col).TotalOrderCompare(b.ValueAt(col));
      if (cmp != 0) return cmp;
    }
    return wa == wb ? 0 : (wa < wb ? -1 : 1);
  };
  std::vector<uint32_t> order;
  order.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].degree > 0.0) order.push_back(static_cast<uint32_t>(i));
  }
  // Ties keep input order, so each group starts with its first row.
  std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    const int cmp = compare(*rows[x].tuple, *rows[y].tuple);
    return cmp != 0 ? cmp < 0 : x < y;
  });
  // Fold each group's maximum into its first row and pack the surviving
  // first rows to the front of `order`.
  size_t kept = 0;
  for (size_t i = 0; i < order.size();) {
    RowRef& first = rows[order[i]];
    size_t next = i + 1;
    for (; next < order.size() &&
           compare(*first.tuple, *rows[order[next]].tuple) == 0;
         ++next) {
      first.degree = std::max(first.degree, rows[order[next]].degree);
    }
    if (first.degree >= min_degree) order[kept++] = order[i];
    i = next;
  }
  std::vector<Tuple> distinct;
  for (size_t i = 0; i < kept; ++i) {
    const RowRef& row = rows[order[i]];
    Tuple tuple =
        columns == nullptr ? *row.tuple : row.tuple->Project(*columns);
    tuple.set_degree(row.degree);
    distinct.push_back(std::move(tuple));
  }
  return distinct;
}

Status Relation::Append(Tuple tuple) {
  if (schema_.NumColumns() != 0 && tuple.NumValues() != schema_.NumColumns()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.NumValues()) +
        " does not match schema arity " +
        std::to_string(schema_.NumColumns()) + " of relation '" + name_ + "'");
  }
  if (tuple.degree() <= 0.0) return Status::OK();
  tuples_.push_back(std::move(tuple));
  version_ = NextVersion();
  return Status::OK();
}

Status Relation::AppendOrMax(Tuple tuple) {
  if (tuple.degree() <= 0.0) return Status::OK();
  for (Tuple& existing : tuples_) {
    if (existing.SameValues(tuple)) {
      existing.set_degree(std::max(existing.degree(), tuple.degree()));
      version_ = NextVersion();
      return Status::OK();
    }
  }
  return Append(std::move(tuple));
}

void Relation::EliminateDuplicates(double min_degree) {
  std::vector<RowRef> rows;
  rows.reserve(tuples_.size());
  for (const Tuple& t : tuples_) rows.push_back(RowRef{&t, t.degree()});
  tuples_ = DistinctMaxDegree(std::move(rows), nullptr, min_degree);
  version_ = NextVersion();
}

void Relation::ApplyThreshold(double min_degree) {
  tuples_.erase(std::remove_if(tuples_.begin(), tuples_.end(),
                               [min_degree](const Tuple& t) {
                                 return t.degree() < min_degree;
                               }),
                tuples_.end());
  version_ = NextVersion();
}

void Relation::Sort(
    const std::function<bool(const Tuple&, const Tuple&)>& less) {
  std::stable_sort(tuples_.begin(), tuples_.end(), less);
  version_ = NextVersion();
}

bool Relation::EquivalentTo(const Relation& other, double tolerance) const {
  Relation a = *this;
  Relation b = other;
  a.EliminateDuplicates();
  b.EliminateDuplicates();
  if (a.NumTuples() != b.NumTuples()) return false;
  // EliminateDuplicates leaves both sides in value order.
  for (size_t i = 0; i < a.NumTuples(); ++i) {
    if (!a.TupleAt(i).SameValues(b.TupleAt(i))) return false;
    if (std::abs(a.TupleAt(i).degree() - b.TupleAt(i).degree()) > tolerance) {
      return false;
    }
  }
  return true;
}

std::string Relation::ToString(size_t max_rows) const {
  std::string out = name_.empty() ? "(anonymous)" : name_;
  out += " " + schema_.ToString() + " [" + std::to_string(tuples_.size()) +
         " tuples]\n";
  size_t shown = 0;
  for (const Tuple& t : tuples_) {
    if (shown++ >= max_rows) {
      out += "  ... (" + std::to_string(tuples_.size() - max_rows) +
             " more)\n";
      break;
    }
    out += "  ";
    out += t.ToString();
    out += '\n';
  }
  return out;
}

}  // namespace fuzzydb
