// Gathering tuple columns into columnar trapezoid batches.
//
// The batch execution path (docs/architecture.md, "Batch execution")
// turns row-at-a-time operator state into SoA batches: a gather walks
// a span of tuples, pulls one column's fuzzy values out and appends
// their corners to a TrapezoidBatch. Gathers are all-or-nothing: a
// single non-fuzzy (or null) value makes the whole batch unusable and
// the caller falls back to the per-lane path for those rows, which keeps
// the batch kernels free of per-lane type tests.
#ifndef FUZZYDB_RELATIONAL_COLUMN_GATHER_H_
#define FUZZYDB_RELATIONAL_COLUMN_GATHER_H_

#include <cstddef>

#include "fuzzy/trapezoid_batch.h"
#include "relational/tuple.h"

namespace fuzzydb {

/// Appends column `col` of tuples[0, count) to `out` (cleared first).
/// Returns true when every value was fuzzy; on false the gather stops
/// at the offending tuple and `out` must not be used.
/// count must not exceed TrapezoidBatch::kCapacity.
bool GatherFuzzyColumn(const Tuple* const* tuples, size_t count, size_t col,
                       TrapezoidBatch* out);

/// As above for a contiguous run of tuples (the filter stage iterates
/// materialized vectors, not pointer arrays).
bool GatherFuzzyColumn(const Tuple* tuples, size_t count, size_t col,
                       TrapezoidBatch* out);

}  // namespace fuzzydb

#endif  // FUZZYDB_RELATIONAL_COLUMN_GATHER_H_
