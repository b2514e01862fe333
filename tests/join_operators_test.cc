// File-based join operators: the extended merge-join must produce exactly
// the pairs of the nested-loop join, with identical degrees, while reading
// each input page a bounded number of times.
#include <gtest/gtest.h>

#include <map>

#include "engine/executor.h"
#include "engine/merge_join.h"
#include "engine/naive_evaluator.h"
#include "engine/nested_loop_join.h"
#include "fuzzy/interval_order.h"
#include "sort/external_sort.h"
#include "test_util.h"
#include "workload/generator.h"

namespace fuzzydb {
namespace {

using testing_util::ScratchDir;

/// All emitted pairs as a value->degree map (pairs keyed by the crisp
/// outer id in column 0 and the inner key corners).
using PairMap = std::map<std::pair<double, std::string>, double>;

class JoinOperatorsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinOperatorsTest, MergeJoinMatchesNestedLoopOracle) {
  const uint64_t seed = GetParam();
  WorkloadConfig config;
  config.seed = seed;
  config.num_r = 300;
  config.num_s = 300;
  config.join_fanout = 6;
  config.partial_membership_fraction = 0.5;
  TypeJDataset dataset = GenerateTypeJDataset(config);

  BufferPool pool(16);
  const std::string r_path = ScratchDir("R" + std::to_string(seed));
  const std::string s_path = ScratchDir("S" + std::to_string(seed));
  ASSERT_OK_AND_ASSIGN(auto r_file,
                       WriteRelationToFile(dataset.r, r_path, &pool, 128));
  ASSERT_OK_AND_ASSIGN(auto s_file,
                       WriteRelationToFile(dataset.s, s_path, &pool, 128));

  FuzzyJoinSpec spec;
  spec.outer_key = 1;  // R.Y
  spec.inner_key = 0;  // S.Z
  spec.residuals.push_back({2, 1, CompareOp::kEq});  // R.U = S.V

  auto key_of = [](const Tuple& r, const Tuple& s) {
    return std::make_pair(r.ValueAt(0).AsFuzzy().CrispValue(),
                          s.ValueAt(0).AsFuzzy().ToString() + "/" +
                              s.ValueAt(1).AsFuzzy().ToString());
  };

  // Oracle: nested loop.
  PairMap expected;
  IoStats nl_io;
  ASSERT_OK(FileNestedLoopJoin(r_file.get(), s_file.get(), &nl_io, 8, spec,
                               nullptr,
                               [&](const Tuple& r, const Tuple& s, double d) {
                                 auto key = key_of(r, s);
                                 auto [it, fresh] = expected.emplace(key, d);
                                 if (!fresh) it->second = std::max(it->second, d);
                                 return Status::OK();
                               }));
  EXPECT_GT(expected.size(), 0u);

  // Merge join over sorted copies.
  auto less_on = [](size_t col) {
    return TupleLess([col](const Tuple& a, const Tuple& b) {
      return IntervalOrderLess(a.ValueAt(col).AsFuzzy(),
                               b.ValueAt(col).AsFuzzy());
    });
  };
  ASSERT_OK_AND_ASSIGN(
      auto r_sorted,
      ExternalSort(r_file.get(), &pool, less_on(1), ScratchDir("rs"),
                   ScratchDir("r_sorted" + std::to_string(seed)), 8, 128));
  ASSERT_OK_AND_ASSIGN(
      auto s_sorted,
      ExternalSort(s_file.get(), &pool, less_on(0), ScratchDir("ss"),
                   ScratchDir("s_sorted" + std::to_string(seed)), 8, 128));

  PairMap actual;
  CpuStats cpu;
  ASSERT_OK(FileMergeJoin(r_sorted.get(), s_sorted.get(), &pool, spec, &cpu,
                          [&](const Tuple& r, const Tuple& s, double d) {
                            auto key = key_of(r, s);
                            auto [it, fresh] = actual.emplace(key, d);
                            if (!fresh) it->second = std::max(it->second, d);
                            return Status::OK();
                          }));

  EXPECT_EQ(expected.size(), actual.size());
  for (const auto& [key, degree] : expected) {
    auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << "missing pair for outer " << key.first;
    EXPECT_NEAR(degree, it->second, 1e-12);
  }

  // The merge-join examines far fewer pairs than the full cross product.
  EXPECT_LT(cpu.tuple_pairs,
            static_cast<uint64_t>(config.num_r) * config.num_s / 4);

  r_file.reset();
  s_file.reset();
  r_sorted.reset();
  s_sorted.reset();
  RemoveFileIfExists(r_path);
  RemoveFileIfExists(s_path);
  RemoveFileIfExists(ScratchDir("r_sorted" + std::to_string(seed)));
  RemoveFileIfExists(ScratchDir("s_sorted" + std::to_string(seed)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinOperatorsTest,
                         ::testing::Values(21, 22, 23, 24));

TEST(JoinIoTest, MergeJoinReadsEachInputOnceWhenWindowsFit) {
  WorkloadConfig config;
  config.seed = 7;
  config.num_r = 400;
  config.num_s = 400;
  config.join_fanout = 4;
  TypeJDataset dataset = GenerateTypeJDataset(config);

  IoStats io;
  BufferPool pool(32, &io);
  ASSERT_OK_AND_ASSIGN(
      auto r_file,
      WriteRelationToFile(dataset.r, ScratchDir("io_r"), &pool, 128));
  ASSERT_OK_AND_ASSIGN(
      auto s_file,
      WriteRelationToFile(dataset.s, ScratchDir("io_s"), &pool, 128));
  auto less_on = [](size_t col) {
    return TupleLess([col](const Tuple& a, const Tuple& b) {
      return IntervalOrderLess(a.ValueAt(col).AsFuzzy(),
                               b.ValueAt(col).AsFuzzy());
    });
  };
  ASSERT_OK_AND_ASSIGN(auto r_sorted,
                       ExternalSort(r_file.get(), &pool, less_on(1),
                                    ScratchDir("io_rs"), ScratchDir("io_rsd"),
                                    8, 128));
  ASSERT_OK_AND_ASSIGN(auto s_sorted,
                       ExternalSort(s_file.get(), &pool, less_on(0),
                                    ScratchDir("io_ss"), ScratchDir("io_ssd"),
                                    8, 128));

  pool.Clear();
  pool.ResetStats();
  FuzzyJoinSpec spec;
  spec.outer_key = 1;
  spec.inner_key = 0;
  spec.residuals.push_back({2, 1, CompareOp::kEq});
  ASSERT_OK(FileMergeJoin(r_sorted.get(), s_sorted.get(), &pool, spec,
                          nullptr, [](const Tuple&, const Tuple&, double) {
                            return Status::OK();
                          }));
  // O(b_R + b_S) behaviour: each page fetched exactly once.
  EXPECT_EQ(pool.stats().page_reads,
            r_sorted->NumPages() + s_sorted->NumPages());

  r_file.reset();
  s_file.reset();
  r_sorted.reset();
  s_sorted.reset();
  RemoveFileIfExists(ScratchDir("io_r"));
  RemoveFileIfExists(ScratchDir("io_s"));
  RemoveFileIfExists(ScratchDir("io_rsd"));
  RemoveFileIfExists(ScratchDir("io_ssd"));
}

TEST(JoinIoTest, NestedLoopIoMatchesFormula) {
  WorkloadConfig config;
  config.seed = 9;
  config.num_r = 500;
  config.num_s = 300;
  TypeJDataset dataset = GenerateTypeJDataset(config);

  BufferPool setup_pool(8);
  ASSERT_OK_AND_ASSIGN(
      auto r_file,
      WriteRelationToFile(dataset.r, ScratchDir("nl_r"), &setup_pool, 128));
  ASSERT_OK_AND_ASSIGN(
      auto s_file,
      WriteRelationToFile(dataset.s, ScratchDir("nl_s"), &setup_pool, 128));

  const size_t buffer_pages = 4;
  IoStats io;
  FuzzyJoinSpec spec;
  spec.outer_key = 1;
  spec.inner_key = 0;
  ASSERT_OK(FileNestedLoopJoin(r_file.get(), s_file.get(), &io, buffer_pages,
                               spec, nullptr,
                               [](const Tuple&, const Tuple&, double) {
                                 return Status::OK();
                               }));
  // Section 3: I/O = b_R + ceil(b_R / (M-1)) * b_S.
  const uint64_t b_r = r_file->NumPages();
  const uint64_t b_s = s_file->NumPages();
  const uint64_t blocks = (b_r + buffer_pages - 2) / (buffer_pages - 1);
  EXPECT_EQ(io.page_reads, b_r + blocks * b_s);

  r_file.reset();
  s_file.reset();
  RemoveFileIfExists(ScratchDir("nl_r"));
  RemoveFileIfExists(ScratchDir("nl_s"));
}

TEST(ExecutorTest, ThresholdPushdownKeepsAnswersAndShrinksWork) {
  // The [42] indicator optimization: WITH D >= z lets the merge window
  // run on z-cuts. Answers must match the unpushed plan filtered at the
  // end; the examined-pair count must not grow as z rises.
  WorkloadConfig config;
  config.seed = 55;
  config.num_r = 400;
  config.num_s = 400;
  config.join_fanout = 8;
  config.fuzzy_fraction = 1.0;  // all-fuzzy keys: cuts genuinely shrink
  config.partial_membership_fraction = 0.5;
  TypeJDataset dataset = GenerateTypeJDataset(config);

  BufferPool setup_pool(8);
  ASSERT_OK_AND_ASSIGN(
      auto r_file,
      WriteRelationToFile(dataset.r, ScratchDir("th_r"), &setup_pool, 128));
  ASSERT_OK_AND_ASSIGN(
      auto s_file,
      WriteRelationToFile(dataset.s, ScratchDir("th_s"), &setup_pool, 128));

  uint64_t previous_pairs = UINT64_MAX;
  for (double threshold : {0.0, 0.3, 0.6, 0.9}) {
    TypeJQuerySpec query;
    query.threshold = threshold;
    ASSERT_OK_AND_ASSIGN(
        RunResult nested,
        RunTypeJNestedLoop(r_file.get(), s_file.get(), query, 8));
    ASSERT_OK_AND_ASSIGN(
        RunResult merged,
        RunTypeJMergeJoin(r_file.get(), s_file.get(), query, 8,
                          ScratchDir("th_tmp"), 128));
    EXPECT_TRUE(nested.answer.EquivalentTo(merged.answer, 1e-12))
        << "threshold " << threshold;
    EXPECT_LE(merged.stats.cpu.tuple_pairs, previous_pairs)
        << "threshold " << threshold;
    previous_pairs = merged.stats.cpu.tuple_pairs;
  }

  r_file.reset();
  s_file.reset();
  RemoveFileIfExists(ScratchDir("th_r"));
  RemoveFileIfExists(ScratchDir("th_s"));
}

TEST(ExecutorTest, NestedLoopAndMergeJoinRunnersAgree) {
  for (uint64_t seed : {31, 32}) {
    WorkloadConfig config;
    config.seed = seed;
    config.num_r = 250;
    config.num_s = 250;
    config.join_fanout = 5;
    config.partial_membership_fraction = 0.4;
    TypeJDataset dataset = GenerateTypeJDataset(config);

    BufferPool setup_pool(8);
    ASSERT_OK_AND_ASSIGN(
        auto r_file,
        WriteRelationToFile(dataset.r, ScratchDir("ex_r"), &setup_pool, 128));
    ASSERT_OK_AND_ASSIGN(
        auto s_file,
        WriteRelationToFile(dataset.s, ScratchDir("ex_s"), &setup_pool, 128));

    TypeJQuerySpec query;
    ASSERT_OK_AND_ASSIGN(
        RunResult nested,
        RunTypeJNestedLoop(r_file.get(), s_file.get(), query, 8));
    ASSERT_OK_AND_ASSIGN(
        RunResult merged,
        RunTypeJMergeJoin(r_file.get(), s_file.get(), query, 8,
                          ScratchDir("ex_tmp"), 128));

    EXPECT_GT(nested.answer.NumTuples(), 0u);
    EXPECT_TRUE(nested.answer.EquivalentTo(merged.answer, 1e-12))
        << "seed " << seed;
    EXPECT_GT(merged.stats.sort_seconds, 0.0);

    // The answers also match the in-memory naive evaluator on the same
    // data -- ties the file path to the executable specification.
    Catalog catalog;
    ASSERT_OK(catalog.AddRelation(dataset.r));
    ASSERT_OK(catalog.AddRelation(dataset.s));
    ASSERT_OK_AND_ASSIGN(
        auto bound,
        sql::ParseAndBind("SELECT R.X FROM R WHERE R.Y IN "
                          "(SELECT S.Z FROM S WHERE S.V = R.U)",
                          catalog));
    NaiveEvaluator naive;
    ASSERT_OK_AND_ASSIGN(Relation spec_answer, naive.Evaluate(*bound));
    EXPECT_TRUE(spec_answer.EquivalentTo(nested.answer, 1e-12));

    r_file.reset();
    s_file.reset();
    RemoveFileIfExists(ScratchDir("ex_r"));
    RemoveFileIfExists(ScratchDir("ex_s"));
  }
}

}  // namespace
}  // namespace fuzzydb
