#include "sort/external_sort.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "fuzzy/interval_order.h"
#include "test_util.h"
#include "workload/generator.h"

namespace fuzzydb {
namespace {

using testing_util::ScratchDir;

TupleLess IntervalLessOn(size_t col) {
  return [col](const Tuple& a, const Tuple& b) {
    return IntervalOrderLess(a.ValueAt(col).AsFuzzy(),
                             b.ValueAt(col).AsFuzzy());
  };
}

class ExternalSortTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ExternalSortTest, MatchesInMemorySortOracle) {
  const size_t num_rows = GetParam();
  Relation relation =
      GenerateRandomRelation(/*seed=*/num_rows, "R", 2, num_rows, 0, 500);

  const std::string in_path = ScratchDir("in" + std::to_string(num_rows));
  const std::string out_path = ScratchDir("out" + std::to_string(num_rows));
  BufferPool pool(8);
  ASSERT_OK_AND_ASSIGN(auto input,
                       WriteRelationToFile(relation, in_path, &pool, 128));

  SortStats stats;
  ASSERT_OK_AND_ASSIGN(
      auto sorted,
      ExternalSort(input.get(), &pool, IntervalLessOn(0),
                   ScratchDir("tmp" + std::to_string(num_rows)), out_path,
                   /*buffer_pages=*/4, /*min_record_size=*/128, &stats));
  EXPECT_EQ(stats.input_tuples, relation.NumTuples());

  ASSERT_OK_AND_ASSIGN(
      Relation result,
      ReadRelationFromFile(sorted.get(), &pool, "sorted", relation.schema()));
  ASSERT_EQ(result.NumTuples(), relation.NumTuples());

  // Order check.
  for (size_t i = 1; i < result.NumTuples(); ++i) {
    EXPECT_FALSE(IntervalOrderLess(result.TupleAt(i).ValueAt(0).AsFuzzy(),
                                   result.TupleAt(i - 1).ValueAt(0).AsFuzzy()))
        << "out of order at " << i;
  }
  // Multiset check: same tuples as a std::stable_sort oracle.
  Relation oracle = relation;
  oracle.Sort(IntervalLessOn(0));
  // Compare as fuzzy sets (EquivalentTo dedups; to compare multisets,
  // check sizes too -- done above -- and per-index keys).
  for (size_t i = 0; i < result.NumTuples(); ++i) {
    EXPECT_EQ(CompareIntervalOrder(result.TupleAt(i).ValueAt(0).AsFuzzy(),
                                   oracle.TupleAt(i).ValueAt(0).AsFuzzy()),
              0);
  }

  input.reset();
  sorted.reset();
  RemoveFileIfExists(in_path);
  RemoveFileIfExists(out_path);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ExternalSortTest,
                         ::testing::Values(0, 1, 7, 100, 1000, 5000));

TEST(ExternalSortTest, MultipleRunsAndMergePasses) {
  Relation relation = GenerateRandomRelation(99, "R", 1, 4000, 0, 10000);
  const std::string in_path = ScratchDir("multi_in");
  BufferPool pool(4);
  ASSERT_OK_AND_ASSIGN(auto input,
                       WriteRelationToFile(relation, in_path, &pool, 256));

  SortStats stats;
  ASSERT_OK_AND_ASSIGN(
      auto sorted,
      ExternalSort(input.get(), &pool, IntervalLessOn(0), ScratchDir("multi"),
                   ScratchDir("multi_out"), /*buffer_pages=*/3,
                   /*min_record_size=*/256, &stats));
  // 4000 tuples x 256 B = ~1 MB with a 24 KiB budget: many runs, and a
  // fan-in of 2 forces multiple merge passes.
  EXPECT_GT(stats.runs_created, 8u);
  EXPECT_GT(stats.merge_passes, 1u);

  ASSERT_OK_AND_ASSIGN(
      Relation result,
      ReadRelationFromFile(sorted.get(), &pool, "s", relation.schema()));
  EXPECT_EQ(result.NumTuples(), relation.NumTuples());
  for (size_t i = 1; i < result.NumTuples(); ++i) {
    EXPECT_FALSE(IntervalOrderLess(result.TupleAt(i).ValueAt(0).AsFuzzy(),
                                   result.TupleAt(i - 1).ValueAt(0).AsFuzzy()));
  }

  input.reset();
  sorted.reset();
  RemoveFileIfExists(in_path);
  RemoveFileIfExists(ScratchDir("multi_out"));
}

TEST(ExternalSortTest, RejectsTinyBuffer) {
  Relation relation = GenerateRandomRelation(1, "R", 1, 10);
  const std::string in_path = ScratchDir("tiny_in");
  BufferPool pool(4);
  ASSERT_OK_AND_ASSIGN(auto input,
                       WriteRelationToFile(relation, in_path, &pool));
  const auto result =
      ExternalSort(input.get(), &pool, IntervalLessOn(0), ScratchDir("tiny"),
                   ScratchDir("tiny_out"), /*buffer_pages=*/2);
  EXPECT_FALSE(result.ok());
  input.reset();
  RemoveFileIfExists(in_path);
}

TEST(ExternalSortTest, SortedFileKeepsPageCountWithPadding) {
  Relation relation = GenerateRandomRelation(5, "R", 1, 500, 0, 100);
  const std::string in_path = ScratchDir("pages_in");
  BufferPool pool(8);
  ASSERT_OK_AND_ASSIGN(auto input,
                       WriteRelationToFile(relation, in_path, &pool, 512));
  ASSERT_OK_AND_ASSIGN(
      auto sorted,
      ExternalSort(input.get(), &pool, IntervalLessOn(0), ScratchDir("pages"),
                   ScratchDir("pages_out"), 4, 512));
  EXPECT_EQ(sorted->NumPages(), input->NumPages());
  input.reset();
  sorted.reset();
  RemoveFileIfExists(in_path);
  RemoveFileIfExists(ScratchDir("pages_out"));
}

}  // namespace
}  // namespace fuzzydb
