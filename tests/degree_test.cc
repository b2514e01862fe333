#include "fuzzy/degree.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fuzzy/necessity.h"
#include "fuzzy/trapezoid.h"
#include "test_util.h"

namespace fuzzydb {
namespace {

using testing_util::BruteForceDegree;

// ---------------------------------------------------------------------
// Equality degrees: hand-computed cases, including the paper's figures.
// ---------------------------------------------------------------------

TEST(EqualityDegreeTest, PaperFig1About35VsMediumYoung) {
  const Trapezoid medium_young(20, 25, 30, 35);
  const Trapezoid about_35 = Trapezoid::Triangle(30, 35, 40);
  // Section 2.2: d(F.AGE = M.AGE) = 0.5 when one is "about 35" and the
  // other "medium young" (Fig. 1).
  EXPECT_DOUBLE_EQ(EqualityDegree(about_35, medium_young), 0.5);
  EXPECT_DOUBLE_EQ(EqualityDegree(medium_young, about_35), 0.5);
}

TEST(EqualityDegreeTest, PaperFig1CrispAge24) {
  const Trapezoid medium_young(20, 25, 30, 35);
  // d(24 = medium young) = mu_medium_young(24) = 0.8.
  EXPECT_DOUBLE_EQ(EqualityDegree(Trapezoid::Crisp(24), medium_young), 0.8);
}

TEST(EqualityDegreeTest, DisjointSupportsGiveZero) {
  EXPECT_DOUBLE_EQ(
      EqualityDegree(Trapezoid(0, 1, 2, 3), Trapezoid(5, 6, 7, 8)), 0.0);
}

TEST(EqualityDegreeTest, TouchingSupportsAtZeroMembershipGiveZero) {
  // Supports touch at 3, but both memberships are 0 there.
  EXPECT_DOUBLE_EQ(
      EqualityDegree(Trapezoid(0, 1, 2, 3), Trapezoid(3, 4, 5, 6)), 0.0);
}

TEST(EqualityDegreeTest, TouchingCoresGiveOne) {
  // X's core ends at 3 (vertical fall), Y's core starts at 3 (vertical
  // rise): the value 3 is fully possible in both.
  EXPECT_DOUBLE_EQ(
      EqualityDegree(Trapezoid(0, 1, 3, 3), Trapezoid(3, 3, 5, 6)), 1.0);
}

TEST(EqualityDegreeTest, OverlappingCoresGiveOne) {
  EXPECT_DOUBLE_EQ(
      EqualityDegree(Trapezoid(0, 2, 6, 8), Trapezoid(4, 5, 9, 12)), 1.0);
}

TEST(EqualityDegreeTest, IdenticalCrispValues) {
  EXPECT_DOUBLE_EQ(
      EqualityDegree(Trapezoid::Crisp(5), Trapezoid::Crisp(5)), 1.0);
  EXPECT_DOUBLE_EQ(
      EqualityDegree(Trapezoid::Crisp(5), Trapezoid::Crisp(5.1)), 0.0);
}

TEST(EqualityDegreeTest, CrispInsideFuzzy) {
  const Trapezoid t(10, 20, 30, 40);
  EXPECT_DOUBLE_EQ(EqualityDegree(Trapezoid::Crisp(25), t), 1.0);
  EXPECT_DOUBLE_EQ(EqualityDegree(Trapezoid::Crisp(15), t), 0.5);
  EXPECT_DOUBLE_EQ(EqualityDegree(Trapezoid::Crisp(35), t), 0.5);
  EXPECT_DOUBLE_EQ(EqualityDegree(Trapezoid::Crisp(10), t), 0.0);
}

TEST(EqualityDegreeTest, VerticalEdgeAgainstSlope) {
  // X jumps to 1 at 31.5 ("middle age"); Y falls 30 -> 35.
  const Trapezoid middle_age(31.5, 31.5, 44, 49);
  const Trapezoid medium_young(20, 25, 30, 35);
  EXPECT_DOUBLE_EQ(EqualityDegree(middle_age, medium_young), 0.7);
}

// ---------------------------------------------------------------------
// Order comparisons.
// ---------------------------------------------------------------------

TEST(OrderDegreeTest, CrispPairs) {
  const Trapezoid a = Trapezoid::Crisp(3), b = Trapezoid::Crisp(5);
  EXPECT_DOUBLE_EQ(LessDegree(a, b), 1.0);
  EXPECT_DOUBLE_EQ(LessDegree(b, a), 0.0);
  EXPECT_DOUBLE_EQ(LessDegree(a, a), 0.0);   // strict
  EXPECT_DOUBLE_EQ(LessEqualDegree(a, a), 1.0);
  EXPECT_DOUBLE_EQ(LessEqualDegree(b, a), 0.0);
}

TEST(OrderDegreeTest, ClearlyOrderedFuzzyValues) {
  const Trapezoid low(0, 1, 2, 3), high(10, 11, 12, 13);
  EXPECT_DOUBLE_EQ(LessDegree(low, high), 1.0);
  EXPECT_DOUBLE_EQ(LessDegree(high, low), 0.0);
  EXPECT_DOUBLE_EQ(LessEqualDegree(low, high), 1.0);
  EXPECT_DOUBLE_EQ(LessEqualDegree(high, low), 0.0);
}

TEST(OrderDegreeTest, OverlappingFuzzyValuesPartialInBothDirections) {
  const Trapezoid x(0, 2, 4, 6), y(3, 5, 7, 9);
  EXPECT_DOUBLE_EQ(LessDegree(x, y), 1.0);   // x can clearly be below y
  // Poss(y < x): need y-values below x-values; overlap [3, 6].
  const double d = LessDegree(y, x);
  EXPECT_GT(d, 0.0);
  EXPECT_LT(d, 1.0);
  EXPECT_NEAR(d, BruteForceDegree(y, CompareOp::kLt, x), 5e-3);
}

TEST(OrderDegreeTest, StrictVsNonStrictAtVerticalEdges) {
  // X crisp at 5; Y rectangular [5, 5] x [5, 10]... Y = (5,5,10,10).
  const Trapezoid x = Trapezoid::Crisp(5);
  const Trapezoid y(5, 5, 10, 10);
  EXPECT_DOUBLE_EQ(LessEqualDegree(x, y), 1.0);
  // Strictly less: y can be anything in (5, 10], fully possible.
  EXPECT_DOUBLE_EQ(LessDegree(x, y), 1.0);
  // Y strictly below x: impossible values below 5.
  EXPECT_DOUBLE_EQ(LessDegree(y, x), 0.0);
  EXPECT_DOUBLE_EQ(LessEqualDegree(y, x), 1.0);  // y may be exactly 5
}

TEST(OrderDegreeTest, StrictLessAgainstLeftVerticalEdge) {
  // X = [5,5,7,9]: support starts with a vertical edge at 5.
  const Trapezoid x(5, 5, 7, 9);
  // Poss(X < 5): X has no mass strictly below 5.
  EXPECT_DOUBLE_EQ(LessDegree(x, Trapezoid::Crisp(5)), 0.0);
  // But Poss(X <= 5) = mu_X(5) = 1.
  EXPECT_DOUBLE_EQ(LessEqualDegree(x, Trapezoid::Crisp(5)), 1.0);
}

TEST(OrderDegreeTest, GreaterDerivedBySymmetry) {
  const Trapezoid x(0, 2, 4, 6), y(3, 5, 7, 9);
  EXPECT_DOUBLE_EQ(SatisfactionDegree(x, CompareOp::kGt, y),
                   LessDegree(y, x));
  EXPECT_DOUBLE_EQ(SatisfactionDegree(x, CompareOp::kGe, y),
                   LessEqualDegree(y, x));
}

// ---------------------------------------------------------------------
// Not-equal and approximate equality.
// ---------------------------------------------------------------------

TEST(NotEqualDegreeTest, Cases) {
  EXPECT_DOUBLE_EQ(
      NotEqualDegree(Trapezoid::Crisp(3), Trapezoid::Crisp(3)), 0.0);
  EXPECT_DOUBLE_EQ(
      NotEqualDegree(Trapezoid::Crisp(3), Trapezoid::Crisp(4)), 1.0);
  EXPECT_DOUBLE_EQ(
      NotEqualDegree(Trapezoid::Crisp(3), Trapezoid(1, 2, 4, 5)), 1.0);
  EXPECT_DOUBLE_EQ(
      NotEqualDegree(Trapezoid(1, 2, 4, 5), Trapezoid(1, 2, 4, 5)), 1.0);
}

TEST(ApproxEqualDegreeTest, ToleranceWidensEquality) {
  const Trapezoid x = Trapezoid::Crisp(10), y = Trapezoid::Crisp(12);
  EXPECT_DOUBLE_EQ(EqualityDegree(x, y), 0.0);
  EXPECT_DOUBLE_EQ(ApproxEqualDegree(x, y, 4.0), 0.5);  // 1 - 2/4
  EXPECT_DOUBLE_EQ(ApproxEqualDegree(x, y, 2.0), 0.0);  // touches at 0
  EXPECT_DOUBLE_EQ(ApproxEqualDegree(x, y, 8.0), 0.75);
  EXPECT_DOUBLE_EQ(ApproxEqualDegree(x, x, 1.0), 1.0);
}

TEST(ApproxEqualDegreeTest, SymmetricForCrispValues) {
  const Trapezoid x = Trapezoid::Crisp(10), y = Trapezoid::Crisp(13);
  EXPECT_DOUBLE_EQ(ApproxEqualDegree(x, y, 6.0), ApproxEqualDegree(y, x, 6.0));
}

// ---------------------------------------------------------------------
// Property sweep: analytic degrees match the brute-force oracle over
// random trapezoid pairs for every comparator.
// ---------------------------------------------------------------------

class DegreeOracleTest : public ::testing::TestWithParam<uint64_t> {};

Trapezoid RandomTrapezoid(Rng* rng) {
  // Half-integer corners over a small domain; includes degenerate shapes.
  double corners[4];
  for (double& c : corners) {
    c = static_cast<double>(rng->UniformInt(0, 40)) / 2.0;
  }
  std::sort(corners, corners + 4);
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return Trapezoid::Crisp(corners[0]);
    case 1:
      return Trapezoid::Interval(corners[0], corners[2]);
    case 2:
      return Trapezoid::Triangle(corners[0], corners[1], corners[3]);
    default:
      return Trapezoid(corners[0], corners[1], corners[2], corners[3]);
  }
}

TEST_P(DegreeOracleTest, AnalyticMatchesBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    const Trapezoid x = RandomTrapezoid(&rng);
    const Trapezoid y = RandomTrapezoid(&rng);
    for (CompareOp op : {CompareOp::kEq, CompareOp::kLt, CompareOp::kLe,
                         CompareOp::kGt, CompareOp::kGe, CompareOp::kNe}) {
      const double analytic = SatisfactionDegree(x, op, y);
      const double sampled = BruteForceDegree(x, op, y, 4000);
      // Corners are half-integers, so edge slopes are at most 2 and the
      // oracle's grid error is bounded by ~2x the grid pitch.
      EXPECT_NEAR(analytic, sampled, 0.025)
          << "op=" << CompareOpName(op) << " x=" << x.ToString()
          << " y=" << y.ToString();
    }
  }
}

TEST_P(DegreeOracleTest, EqualitySymmetryAndBounds) {
  Rng rng(GetParam() ^ 0x9e3779b97f4a7c15ULL);
  for (int trial = 0; trial < 200; ++trial) {
    const Trapezoid x = RandomTrapezoid(&rng);
    const Trapezoid y = RandomTrapezoid(&rng);
    const double d = EqualityDegree(x, y);
    EXPECT_DOUBLE_EQ(d, EqualityDegree(y, x));
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
    // Reflexivity: every normalized value equals itself with degree 1.
    EXPECT_DOUBLE_EQ(EqualityDegree(x, x), 1.0);
    // Le/Ge duality.
    EXPECT_DOUBLE_EQ(LessEqualDegree(x, y),
                     SatisfactionDegree(y, CompareOp::kGe, x));
    // Monotonicity: a value is <= or >= another at least as possibly as
    // it is strictly so.
    EXPECT_GE(LessEqualDegree(x, y), LessDegree(x, y));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DegreeOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------- Necessity measure --------------------------

TEST(NecessityTest, NeverExceedsPossibility) {
  // With convex normal distributions Nec <= Poss (Section 2.2).
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    double c[4];
    for (double& v : c) v = static_cast<double>(rng.UniformInt(0, 20));
    std::sort(c, c + 4);
    const Trapezoid x(c[0], c[1], c[2], c[3]);
    for (double& v : c) v = static_cast<double>(rng.UniformInt(0, 20));
    std::sort(c, c + 4);
    const Trapezoid y(c[0], c[1], c[2], c[3]);
    for (CompareOp op : {CompareOp::kEq, CompareOp::kLt, CompareOp::kLe,
                         CompareOp::kGt, CompareOp::kGe}) {
      EXPECT_LE(NecessityDegree(x, op, y),
                SatisfactionDegree(x, op, y) + 1e-12)
          << CompareOpName(op) << " " << x.ToString() << " "
          << y.ToString();
    }
  }
}

TEST(NecessityTest, CrispValuesAgreeWithPossibility) {
  const Trapezoid a = Trapezoid::Crisp(3), b = Trapezoid::Crisp(5);
  EXPECT_DOUBLE_EQ(NecessityDegree(a, CompareOp::kLt, b), 1.0);
  EXPECT_DOUBLE_EQ(NecessityDegree(b, CompareOp::kLt, a), 0.0);
  EXPECT_DOUBLE_EQ(NecessityDegree(a, CompareOp::kEq, a), 1.0);
}

TEST(NecessityTest, FuzzyEqualityIsNeverNecessary) {
  // Two genuinely fuzzy values may be equal (Poss > 0) but are never
  // necessarily equal (the values could differ).
  const Trapezoid x(0, 2, 4, 6), y(3, 4, 6, 8);
  EXPECT_GT(SatisfactionDegree(x, CompareOp::kEq, y), 0.0);
  EXPECT_DOUBLE_EQ(NecessityDegree(x, CompareOp::kEq, y), 0.0);
}

TEST(NecessityTest, ClearlySeparatedValues) {
  const Trapezoid low(0, 1, 2, 3), high(10, 11, 12, 13);
  EXPECT_DOUBLE_EQ(NecessityDegree(low, CompareOp::kLt, high), 1.0);
  EXPECT_DOUBLE_EQ(NecessityDegree(high, CompareOp::kLt, low), 0.0);
}

}  // namespace
}  // namespace fuzzydb
