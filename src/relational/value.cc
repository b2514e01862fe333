#include "relational/value.h"

#include "fuzzy/interval_order.h"

namespace fuzzydb {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kString:
      return "STRING";
    case ValueType::kFuzzy:
      return "FUZZY";
  }
  return "?";
}

bool Value::Identical(const Value& other) const {
  if (type() != other.type()) return false;
  switch (type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kString:
      return AsString() == other.AsString();
    case ValueType::kFuzzy:
      return AsFuzzy() == other.AsFuzzy();
  }
  return false;
}

double Value::Compare(CompareOp op, const Value& other,
                      double approx_tolerance) const {
  if (is_null() || other.is_null()) return 0.0;
  if (is_fuzzy() && other.is_fuzzy()) {
    return SatisfactionDegree(AsFuzzy(), op, other.AsFuzzy(),
                              approx_tolerance);
  }
  if (is_string() && other.is_string()) {
    const int cmp = AsString().compare(other.AsString());
    bool holds = false;
    switch (op) {
      case CompareOp::kEq:
      case CompareOp::kApproxEq:
        holds = cmp == 0;
        break;
      case CompareOp::kNe:
        holds = cmp != 0;
        break;
      case CompareOp::kLt:
        holds = cmp < 0;
        break;
      case CompareOp::kLe:
        holds = cmp <= 0;
        break;
      case CompareOp::kGt:
        holds = cmp > 0;
        break;
      case CompareOp::kGe:
        holds = cmp >= 0;
        break;
    }
    return holds ? 1.0 : 0.0;
  }
  return 0.0;  // type mismatch
}

int Value::TotalOrderCompare(const Value& other) const {
  const int t1 = static_cast<int>(type());
  const int t2 = static_cast<int>(other.type());
  if (t1 != t2) return t1 < t2 ? -1 : 1;
  switch (type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kString: {
      const int cmp = AsString().compare(other.AsString());
      return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    }
    case ValueType::kFuzzy: {
      const Trapezoid& x = AsFuzzy();
      const Trapezoid& y = other.AsFuzzy();
      const int cmp = CompareIntervalOrder(x, y);
      if (cmp != 0) return cmp;
      // Refine by the inner corners so the order is consistent with
      // Identical (Definition 3.1 only orders by the support interval).
      if (x.b() != y.b()) return x.b() < y.b() ? -1 : 1;
      if (x.c() != y.c()) return x.c() < y.c() ? -1 : 1;
      return 0;
    }
  }
  return 0;
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Value::AppendTo(std::string* out) const {
  if (is_fuzzy()) {
    AsFuzzy().AppendTo(out);
  } else if (is_string()) {
    out->append(1, '\'').append(AsString()).append(1, '\'');
  } else {
    out->append("NULL");
  }
}

}  // namespace fuzzydb
