// The parallel execution layer: thread pool, morsel scheduling,
// ParallelFor/ParallelSort, and the determinism guarantee of the
// morsel-driven operators -- every query type must produce identical
// tuples, degrees, AND CpuStats counters for every thread count.
//
// Run this binary under TSan (-DFUZZYDB_SANITIZE=thread) to validate the
// synchronization; see README.md.
#include "parallel/parallel_for.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/naive_evaluator.h"
#include "engine/partitioned_join.h"
#include "engine/unnested_evaluator.h"
#include "fuzzy/interval_order.h"
#include "fuzzy/trapezoid_batch.h"
#include "obs/trace.h"
#include "parallel/morsel.h"
#include "parallel/thread_pool.h"
#include "sort/external_sort.h"
#include "test_util.h"
#include "workload/generator.h"

namespace fuzzydb {
namespace {

using testing_util::ScratchDir;

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  auto future = pool.Submit([] {});
  future.get();
}

TEST(ThreadPoolTest, ExceptionReachesTheFuture) {
  ThreadPool pool(2);
  auto ok = pool.Submit([] {});
  auto bad = pool.Submit([] { throw std::runtime_error("boom"); });
  ok.get();
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool survives a throwing task.
  std::atomic<int> count{0};
  pool.Submit([&count] { ++count; }).get();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      (void)pool.Submit([&count] { ++count; });
    }
    // Destruction must complete all 50 submitted tasks before joining.
  }
  EXPECT_EQ(count.load(), 50);
}

// ---------------------------------------------------------------------
// MorselCursor
// ---------------------------------------------------------------------

TEST(MorselCursorTest, SequentialRangesAreExact) {
  MorselCursor cursor(10, 4);
  EXPECT_EQ(cursor.NumMorsels(), 3u);
  size_t b = 0, e = 0;
  ASSERT_TRUE(cursor.Next(&b, &e));
  EXPECT_EQ(b, 0u);
  EXPECT_EQ(e, 4u);
  ASSERT_TRUE(cursor.Next(&b, &e));
  EXPECT_EQ(b, 4u);
  EXPECT_EQ(e, 8u);
  ASSERT_TRUE(cursor.Next(&b, &e));
  EXPECT_EQ(b, 8u);
  EXPECT_EQ(e, 10u);  // last morsel is short
  EXPECT_FALSE(cursor.Next(&b, &e));
  EXPECT_FALSE(cursor.Next(&b, &e));  // stays exhausted
}

TEST(MorselCursorTest, EmptyInputHandsOutNothing) {
  MorselCursor cursor(0, 8);
  EXPECT_EQ(cursor.NumMorsels(), 0u);
  size_t b = 0, e = 0;
  EXPECT_FALSE(cursor.Next(&b, &e));
}

TEST(MorselCursorTest, ZeroMorselSizeClampsToOne) {
  MorselCursor cursor(3, 0);
  EXPECT_EQ(cursor.NumMorsels(), 3u);
  EXPECT_EQ(cursor.morsel_size(), 1u);
}

TEST(MorselCursorTest, ConcurrentDrainCoversEveryIndexOnce) {
  const size_t total = 10000;
  MorselCursor cursor(total, 7);
  std::vector<std::atomic<int>> hits(total);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      size_t b = 0, e = 0;
      while (cursor.Next(&b, &e)) {
        for (size_t i = b; i < e; ++i) ++hits[i];
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t i = 0; i < total; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(MorselRangesTest, MatchesTheCursorDecomposition) {
  const auto ranges = MorselRanges(10, 4);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0], (std::pair<size_t, size_t>{0, 4}));
  EXPECT_EQ(ranges[1], (std::pair<size_t, size_t>{4, 8}));
  EXPECT_EQ(ranges[2], (std::pair<size_t, size_t>{8, 10}));
  EXPECT_TRUE(MorselRanges(0, 4).empty());
}

// ---------------------------------------------------------------------
// ParallelFor / ParallelSort
// ---------------------------------------------------------------------

class ParallelForTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  const size_t threads = GetParam();
  ThreadPool pool(threads);
  ParallelContext ctx{threads > 1 ? &pool : nullptr, /*morsel_size=*/64};

  const size_t total = 5000;
  std::vector<std::atomic<int>> hits(total);
  EXPECT_TRUE(
      ParallelFor(ctx, total, [&](size_t worker, size_t begin, size_t end) {
        EXPECT_LT(worker, WorkerSlots(ctx));
        for (size_t i = begin; i < end; ++i) ++hits[i];
      }));
  for (size_t i = 0; i < total; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_P(ParallelForTest, PropagatesTheBodyException) {
  const size_t threads = GetParam();
  ThreadPool pool(threads);
  ParallelContext ctx{threads > 1 ? &pool : nullptr, /*morsel_size=*/8};
  EXPECT_THROW(
      (void)ParallelFor(ctx, 100,
                  [&](size_t, size_t begin, size_t) {
                    if (begin == 48) throw std::runtime_error("morsel 6");
                  }),
      std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelForTest,
                         ::testing::Values<size_t>(1, 2, 4, 8));

TEST(ParallelForTest, EmptyRangeNeverCallsTheBody) {
  ThreadPool pool(2);
  ParallelContext ctx{&pool, 16};
  EXPECT_TRUE(ParallelFor(ctx, 0, [&](size_t, size_t, size_t) { FAIL(); }));
}

// ParallelFor reports whether every morsel ran: false when a stop kept
// morsels from being handed out, true when it landed after the last
// one was (the work is then complete).
TEST(ParallelForTest, ReportsWhetherAStopSkippedMorsels) {
  constexpr size_t kTotal = 100;
  constexpr size_t kMorsel = 8;  // morsels 0..12; 12 is the last
  for (const size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    for (const size_t cancel_morsel : {size_t{3}, size_t{12}}) {
      const std::string label = std::to_string(threads) +
                                " threads, cancel in morsel " +
                                std::to_string(cancel_morsel);
      QueryContext query;
      ParallelContext ctx{threads > 1 ? &pool : nullptr, kMorsel};
      ctx.query = &query;
      std::atomic<size_t> visited{0};
      const bool complete =
          ParallelFor(ctx, kTotal, [&](size_t, size_t begin, size_t end) {
            visited += end - begin;
            if (begin / kMorsel == cancel_morsel) query.Cancel();
          });
      // Which morsels other workers claimed before the stop depends on
      // scheduling; the report must match what actually ran.
      EXPECT_EQ(complete, visited.load() == kTotal) << label;
      if (threads == 1) {
        EXPECT_EQ(complete, cancel_morsel == 12) << label;
      }
    }
    QueryContext cancelled;
    cancelled.Cancel();
    ParallelContext ctx{threads > 1 ? &pool : nullptr, kMorsel};
    ctx.query = &cancelled;
    EXPECT_FALSE(ParallelFor(ctx, kTotal, [&](size_t, size_t, size_t) {
      ADD_FAILURE() << "a morsel ran after the stop";
    }));
    EXPECT_TRUE(ParallelFor(ctx, 0, [&](size_t, size_t, size_t) {}));
  }
}

// make_less factory for ParallelSort over ints.
auto CountingIntLess() {
  return [](uint64_t* count) {
    return [count](int a, int b) {
      ++*count;
      return a < b;
    };
  };
}

TEST(ParallelSortTest, MatchesStdSortOracle) {
  std::mt19937 rng(7);
  for (size_t n : {0u, 1u, 5u, 100u, 3000u, 10000u}) {
    std::vector<int> values(n);
    // Narrow domain so duplicates are common.
    std::uniform_int_distribution<int> dist(0, 97);
    for (auto& v : values) v = dist(rng);
    std::vector<int> expected = values;
    std::sort(expected.begin(), expected.end());

    ThreadPool pool(4);
    ParallelContext ctx{&pool, /*morsel_size=*/128};
    uint64_t comparisons = 0;
    ASSERT_TRUE(ParallelSort(ctx, &values, &comparisons, CountingIntLess()));
    EXPECT_EQ(values, expected) << "n=" << n;
    if (n > 1) {
      EXPECT_GT(comparisons, 0u);
    }
  }
}

TEST(ParallelSortTest, OrderAndCountInvariantAcrossThreadCounts) {
  std::mt19937 rng(11);
  std::vector<int> input(5000);
  std::uniform_int_distribution<int> dist(0, 999);
  for (auto& v : input) v = dist(rng);

  std::vector<int> reference;
  uint64_t reference_count = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    ParallelContext ctx{threads > 1 ? &pool : nullptr, /*morsel_size=*/256};
    std::vector<int> values = input;
    uint64_t comparisons = 0;
    ASSERT_TRUE(ParallelSort(ctx, &values, &comparisons, CountingIntLess()));
    if (reference.empty()) {
      reference = values;
      reference_count = comparisons;
    } else {
      EXPECT_EQ(values, reference) << threads << " threads";
      EXPECT_EQ(comparisons, reference_count) << threads << " threads";
    }
  }
}

// A stop that lands after the run sorts (or inside the merge rounds)
// leaves the ping-pong buffer holding default-constructed elements;
// ParallelSort must report it so no caller reads them.
TEST(ParallelSortTest, ReportsAStopBetweenRunSortsAndMerges) {
  std::vector<int> input(4 * 128);
  std::iota(input.rbegin(), input.rend(), 1);
  for (const size_t threads : {1u, 4u}) {
    // make_less is called once per run sort (four runs), then once per
    // merge pair: the 4th call is the last run sort, the 5th the first
    // merge.
    for (const int cancel_at : {0, 4, 5}) {
      ThreadPool pool(threads);
      QueryContext query;
      ParallelContext ctx{threads > 1 ? &pool : nullptr, /*morsel_size=*/128};
      ctx.query = &query;
      std::atomic<int> calls{0};
      std::vector<int> values = input;
      const bool completed =
          ParallelSort(ctx, &values, nullptr, [&](uint64_t* count) {
            if (++calls == cancel_at) query.Cancel();
            return CountingIntLess()(count);
          });
      EXPECT_EQ(completed, cancel_at == 0)
          << threads << " threads, cancel at " << cancel_at;
      if (cancel_at == 4) {
        EXPECT_EQ(calls.load(), 4) << "a merge started after the stop";
      }
      if (completed) {
        EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
      }
    }
  }
}

// ---------------------------------------------------------------------
// Whole-query determinism: serial and parallel runs of the unnesting
// evaluator must agree exactly -- tuples, degrees, and CpuStats.
// ---------------------------------------------------------------------

struct DeterminismCase {
  const char* name;
  const char* query;
};

// Everything about a trace that must be thread-count-invariant: tree
// shape, operator names/details, cardinalities, every counter delta,
// and the batch annotations (batches are cut at morsel ends). Wall
// times and the threads= annotation are the only fields allowed to
// differ, so they are the only fields left out.
void AppendTraceSignature(const ExecTrace& trace, size_t id, int depth,
                          std::string* out) {
  const TraceNode& node = trace.nodes()[id];
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += node.name;
  if (!node.detail.empty()) *out += " [" + node.detail + "]";
  if (node.input_rows != TraceNode::kNoCount) {
    *out += " in=" + std::to_string(node.input_rows);
  }
  if (node.output_rows != TraceNode::kNoCount) {
    *out += " out=" + std::to_string(node.output_rows);
  }
  *out += " pairs=" + std::to_string(node.cpu.tuple_pairs);
  *out += " degrees=" + std::to_string(node.cpu.degree_evaluations);
  *out += " cmp=" + std::to_string(node.cpu.comparisons);
  *out += " subq=" + std::to_string(node.cpu.subquery_evaluations);
  *out += " reads=" + std::to_string(node.io.page_reads);
  *out += " writes=" + std::to_string(node.io.page_writes);
  if (node.batches != TraceNode::kNoCount) {
    *out += " batches=" + std::to_string(node.batches) +
            " batch_rows=" + std::to_string(node.batch_rows);
  }
  if (node.clamped) *out += " CLAMPED";
  *out += "\n";
  for (size_t child : node.children) {
    AppendTraceSignature(trace, child, depth + 1, out);
  }
}

std::string TraceSignature(const ExecTrace& trace) {
  std::string out;
  for (size_t root : trace.roots()) {
    AppendTraceSignature(trace, root, 0, &out);
  }
  return out;
}

const DeterminismCase kDeterminismCases[] = {
    {"TypeN",
     "SELECT R.C0 FROM R WHERE R.C1 IN (SELECT S.C0 FROM S WHERE S.C1 >= 5)"},
    {"TypeJ",
     "SELECT R.C0 FROM R WHERE R.C1 IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)"},
    {"TypeJ_TwoCorrelations",
     "SELECT R.C0 FROM R WHERE R.C1 IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2 AND S.C0 >= R.C0)"},
    {"TypeJX",
     "SELECT R.C0 FROM R WHERE R.C1 NOT IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)"},
    {"TypeJA_Max",
     "SELECT R.C0 FROM R WHERE R.C1 > "
     "(SELECT MAX(S.C0) FROM S WHERE S.C1 = R.C2)"},
    {"TypeJA_Count",
     "SELECT R.C0 FROM R WHERE R.C1 >= "
     "(SELECT COUNT(S.C0) FROM S WHERE S.C1 = R.C2)"},
    {"TypeJALL",
     "SELECT R.C0 FROM R WHERE R.C1 <= ALL "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)"},
    {"TypeJSOME",
     "SELECT R.C0 FROM R WHERE R.C1 < SOME "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)"},
    {"TypeJEXISTS",
     "SELECT R.C0 FROM R WHERE EXISTS "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)"},
    {"Multi_MixedKinds",
     "SELECT R.C0 FROM R WHERE "
     "R.C1 IN (SELECT S.C0 FROM S WHERE S.C1 = R.C2) AND "
     "R.C0 <= (SELECT MAX(S.C0) FROM S WHERE S.C1 = R.C1) AND "
     "R.C2 < SOME (SELECT S.C1 FROM S)"},
    {"Chain3",
     "SELECT R.C0 FROM R WHERE R.C1 IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2 AND S.C0 IN "
     "(SELECT T3.C0 FROM T3 WHERE T3.C1 = S.C1))"},
    // Correlated, but with no equality correlation to window on and an
    // ALL link (f(0) = 1): the nested-pairing plan.
    {"NestedPairing",
     "SELECT R.C0 FROM R WHERE R.C1 <= ALL "
     "(SELECT S.C0 FROM S WHERE S.C1 < R.C2)"},
};

// Relations large enough that every operator spans many 16-tuple
// morsels (filter, sort runs, merge windows).
constexpr size_t kDeterminismRows = 300;  // |R| = |S|
constexpr size_t kDeterminismMorsel = 16;

Catalog MakeDeterminismCatalog() {
  Catalog catalog;
  EXPECT_OK(catalog.AddRelation(
      GenerateRandomRelation(101, "R", 3, kDeterminismRows)));
  EXPECT_OK(catalog.AddRelation(
      GenerateRandomRelation(202, "S", 2, kDeterminismRows)));
  EXPECT_OK(catalog.AddRelation(GenerateRandomRelation(303, "T3", 2, 120)));
  return catalog;
}

class DeterminismTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DeterminismTest, IdenticalAnswerAndStatsForEveryThreadCount) {
  const DeterminismCase& test_case = kDeterminismCases[GetParam()];
  const Catalog catalog = MakeDeterminismCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound,
                       sql::ParseAndBind(test_case.query, catalog));

  // The serial run is the reference; the naive evaluator guards its
  // correctness.
  NaiveEvaluator naive;
  ASSERT_OK_AND_ASSIGN(Relation oracle, naive.Evaluate(*bound));

  // The reference is the serial run. Every thread count must reproduce
  // it exactly -- tuples, degrees, counters, and trace.
  ExecOptions options;
  options.morsel_size = kDeterminismMorsel;
  options.num_threads = 1;
  ExecTrace reference_trace;
  options.trace = &reference_trace;
  CpuStats reference_cpu;
  UnnestingEvaluator reference(options, &reference_cpu);
  ASSERT_OK_AND_ASSIGN(Relation expected, reference.Evaluate(*bound));
  EXPECT_TRUE(reference.last_was_unnested()) << test_case.query;
  EXPECT_TRUE(oracle.EquivalentTo(expected, 1e-12)) << test_case.name;
  const std::string reference_signature = TraceSignature(reference_trace);
  ASSERT_FALSE(reference_signature.empty());

  for (size_t threads : {2u, 4u, 8u}) {
    options.num_threads = threads;
    ExecTrace trace;
    options.trace = &trace;
    CpuStats cpu;
    UnnestingEvaluator parallel(options, &cpu);
    ASSERT_OK_AND_ASSIGN(Relation actual, parallel.Evaluate(*bound));
    const std::string label = test_case.name + std::string(" with ") +
                              std::to_string(threads) + " threads";
    // Tuples and degrees: exact, not approximate -- the parallel plans
    // perform the same arithmetic on the same operands.
    EXPECT_TRUE(expected.EquivalentTo(actual, 0.0))
        << label << "\nserial:\n"
        << expected.ToString(20) << "\nparallel:\n" << actual.ToString(20);
    // Work counters: identical, field by field.
    EXPECT_EQ(cpu.tuple_pairs, reference_cpu.tuple_pairs) << label;
    EXPECT_EQ(cpu.degree_evaluations, reference_cpu.degree_evaluations)
        << label;
    EXPECT_EQ(cpu.comparisons, reference_cpu.comparisons) << label;
    EXPECT_EQ(cpu.subquery_evaluations, reference_cpu.subquery_evaluations)
        << label;
    // The execution trace -- operator tree, cardinalities, every
    // per-span counter delta and batch annotation -- is invariant.
    EXPECT_EQ(TraceSignature(trace), reference_signature) << label;
  }
}

std::string DeterminismCaseName(
    const ::testing::TestParamInfo<size_t>& info) {
  return kDeterminismCases[info.param].name;
}

INSTANTIATE_TEST_SUITE_P(AllTypes, DeterminismTest,
                         ::testing::Range<size_t>(
                             0, std::size(kDeterminismCases)),
                         DeterminismCaseName);

/// Runs one determinism case serially with the determinism options and
/// returns its trace.
ExecTrace TraceDeterminismCase(const DeterminismCase& test_case,
                               const Catalog& catalog) {
  ExecTrace trace;
  auto bound = sql::ParseAndBind(test_case.query, catalog);
  EXPECT_TRUE(bound.ok()) << test_case.name;
  if (!bound.ok()) return trace;
  ExecOptions options;
  options.morsel_size = kDeterminismMorsel;
  options.num_threads = 1;
  options.trace = &trace;
  CpuStats cpu;  // spans record counter deltas only when counting
  UnnestingEvaluator engine(options, &cpu);
  EXPECT_TRUE(engine.Evaluate(**bound).ok()) << test_case.name;
  return trace;
}

// The pair stage evaluates a batch whenever kCapacity pairs are pending
// and drains the rest at the morsel end. For the mid-morsel evaluation
// to be covered, some determinism case must put more than kCapacity
// pairs into one merge-window morsel. Derived from the span's counts:
// when the windowed pairs exceed kCapacity times the number of morsels,
// some morsel holds more than kCapacity of them.
TEST(DeterminismCoverageTest, SomeMergeWindowMorselExceedsOneBatch) {
  const Catalog catalog = MakeDeterminismCatalog();
  std::string covered_by;
  std::string seen;
  for (const DeterminismCase& test_case : kDeterminismCases) {
    const ExecTrace trace = TraceDeterminismCase(test_case, catalog);
    for (const TraceNode& node : trace.nodes()) {
      if (node.name != "merge-window") continue;
      const uint64_t morsels =
          (node.input_rows + kDeterminismMorsel - 1) / kDeterminismMorsel;
      seen += std::string(" ") + test_case.name + ":" +
              std::to_string(node.output_rows) + "/" +
              std::to_string(morsels);
      if (node.output_rows > TrapezoidBatch::kCapacity * morsels) {
        covered_by = test_case.name;
      }
    }
  }
  EXPECT_FALSE(covered_by.empty()) << "pairs/morsels:" << seen;
}

// The nested-pairing plan (no equality correlation, ALL link) runs
// through the same batched pair stage: its span carries batches.
TEST(DeterminismCoverageTest, NestedPairingRunsThroughThePairStage) {
  const Catalog catalog = MakeDeterminismCatalog();
  bool found = false;
  for (const DeterminismCase& test_case : kDeterminismCases) {
    if (std::string(test_case.name) != "NestedPairing") continue;
    const ExecTrace trace = TraceDeterminismCase(test_case, catalog);
    for (const TraceNode& node : trace.nodes()) {
      if (node.name != "nested-pairing") continue;
      found = true;
      EXPECT_GT(node.cpu.tuple_pairs, 0u);
      ASSERT_NE(node.batches, TraceNode::kNoCount);
      EXPECT_GT(node.batches, 0u);
    }
  }
  EXPECT_TRUE(found);
}

// The chain's answer projects level 0 only, so its emit must see at
// most one row per R tuple rather than every flat K-way row (millions
// here).
TEST(ChainEmitTest, EmitSeesAtMostOneRowPerOuterTuple) {
  const Catalog catalog = MakeDeterminismCatalog();
  for (const DeterminismCase& test_case : kDeterminismCases) {
    if (std::string(test_case.name) != "Chain3") continue;
    const ExecTrace trace = TraceDeterminismCase(test_case, catalog);
    size_t emits = 0;
    for (const TraceNode& node : trace.nodes()) {
      if (node.name != "emit") continue;
      ++emits;
      EXPECT_LE(node.input_rows, kDeterminismRows);
    }
    EXPECT_EQ(emits, 1u);
  }
}

// ---------------------------------------------------------------------
// File operators: partitioned join and external sort
// ---------------------------------------------------------------------

TEST(ParallelPartitionedJoinTest, EmitSequenceAndStatsMatchSerial) {
  WorkloadConfig config;
  config.seed = 91;
  config.num_r = 300;
  config.num_s = 300;
  config.join_fanout = 5;
  config.partial_membership_fraction = 0.5;
  TypeJDataset dataset = GenerateTypeJDataset(config);

  BufferPool pool(32);
  ASSERT_OK_AND_ASSIGN(
      auto r_file,
      WriteRelationToFile(dataset.r, ScratchDir("pj_r"), &pool, 128));
  ASSERT_OK_AND_ASSIGN(
      auto s_file,
      WriteRelationToFile(dataset.s, ScratchDir("pj_s"), &pool, 128));

  FuzzyJoinSpec spec;
  spec.outer_key = 1;
  spec.inner_key = 0;
  spec.residuals.push_back({2, 1, CompareOp::kEq});

  struct Emitted {
    std::string r, s;
    double d;
    bool operator==(const Emitted&) const = default;
  };
  auto run = [&](const ParallelContext* ctx, std::vector<Emitted>* out,
                 CpuStats* cpu) {
    return FilePartitionedJoin(
        r_file.get(), s_file.get(), &pool, spec, /*num_partitions=*/8,
        ScratchDir("pj_tmp"), cpu,
        [&](const Tuple& r, const Tuple& s, double d) {
          out->push_back({r.ToString(), s.ToString(), d});
          return Status::OK();
        },
        /*stats=*/nullptr, ctx);
  };

  std::vector<Emitted> serial;
  CpuStats serial_cpu;
  ASSERT_OK(run(nullptr, &serial, &serial_cpu));
  EXPECT_GT(serial.size(), 0u);

  for (size_t threads : {2u, 4u}) {
    ThreadPool workers(threads);
    ParallelContext ctx{&workers, /*morsel_size=*/16};
    std::vector<Emitted> parallel;
    CpuStats cpu;
    ASSERT_OK(run(&ctx, &parallel, &cpu));
    EXPECT_EQ(parallel, serial) << threads << " threads";
    EXPECT_EQ(cpu, serial_cpu) << threads << " threads";
  }

  r_file.reset();
  s_file.reset();
  RemoveFileIfExists(ScratchDir("pj_r"));
  RemoveFileIfExists(ScratchDir("pj_s"));
}

TEST(ParallelExternalSortTest, OutputAndCountInvariantAcrossThreadCounts) {
  Relation relation = GenerateRandomRelation(55, "R", 2, 1200, 0, 500);
  BufferPool pool(8);
  ASSERT_OK_AND_ASSIGN(
      auto input,
      WriteRelationToFile(relation, ScratchDir("es_in"), &pool, 128));

  TupleLess less = [](const Tuple& a, const Tuple& b) {
    return IntervalOrderLess(a.ValueAt(0).AsFuzzy(), b.ValueAt(0).AsFuzzy());
  };

  std::vector<std::string> reference;
  uint64_t reference_comparisons = 0;
  for (size_t threads : {1u, 2u, 4u}) {
    ThreadPool workers(threads);
    ParallelContext ctx{threads > 1 ? &workers : nullptr, /*morsel_size=*/64};
    const std::string out_path =
        ScratchDir("es_out" + std::to_string(threads));
    SortStats stats;
    ASSERT_OK_AND_ASSIGN(
        auto sorted,
        ExternalSort(input.get(), &pool, less, ScratchDir("es_tmp"), out_path,
                     /*buffer_pages=*/4, /*min_record_size=*/128, &stats,
                     &ctx));
    ASSERT_OK_AND_ASSIGN(
        Relation result,
        ReadRelationFromFile(sorted.get(), &pool, "sorted", relation.schema()));
    ASSERT_EQ(result.NumTuples(), relation.NumTuples());
    std::vector<std::string> sequence;
    for (const Tuple& t : result.tuples()) sequence.push_back(t.ToString());

    if (reference.empty()) {
      reference = std::move(sequence);
      reference_comparisons = stats.comparisons;
    } else {
      EXPECT_EQ(sequence, reference) << threads << " threads";
      EXPECT_EQ(stats.comparisons, reference_comparisons)
          << threads << " threads";
    }
    pool.Invalidate(sorted.get());
    sorted.reset();
    RemoveFileIfExists(out_path);
  }
  input.reset();
  RemoveFileIfExists(ScratchDir("es_in"));
}

}  // namespace
}  // namespace fuzzydb
