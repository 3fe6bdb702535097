// lejit::absint — the product domain (interval × congruence × known-bits),
// its reduced-product normalization, the NNF transfer functions, the rule-set
// fixpoint, and the differential soundness harness (DESIGN.md §16).
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "absint/absint.hpp"
#include "absint/diff.hpp"
#include "rules/parser.hpp"
#include "smt/backend.hpp"
#include "smt/solver.hpp"

namespace lejit::absint {
namespace {

using smt::Int;
using smt::LinExpr;
using smt::VarId;

telemetry::RowLayout small_layout(std::vector<Int> maxima) {
  telemetry::RowLayout layout;
  for (std::size_t i = 0; i < maxima.size(); ++i) {
    telemetry::FieldSpec spec;
    spec.name = "f" + std::to_string(i);
    spec.max_value = maxima[i];
    layout.fields.push_back(spec);
  }
  return layout;
}

rules::RuleSet make_set(std::vector<smt::Formula> formulas) {
  rules::RuleSet set;
  for (auto& f : formulas) {
    rules::Rule r;
    r.description = "test rule";
    r.formula = std::move(f);
    set.rules.push_back(std::move(r));
  }
  return set;
}

// --- domain components -------------------------------------------------------

TEST(AbsintDomain, KnownBitsMatchSearchIsExact) {
  // mask 0b101, value 0b100: admitted values have bit2=1, bit0=0.
  const KnownBits kb{0b101, 0b100};
  EXPECT_EQ(least_match_at_least(0, kb).value_or(-1), 4);
  EXPECT_EQ(least_match_at_least(5, kb).value_or(-1), 6);
  EXPECT_EQ(least_match_at_least(7, kb).value_or(-1), 12);
  EXPECT_EQ(greatest_match_at_most(15, kb).value_or(-1), 14);
  EXPECT_EQ(greatest_match_at_most(3, kb).value_or(-1), -1);
  // Brute-force agreement over a small window.
  for (Int lo = 0; lo < 64; ++lo) {
    Int expect = -1;
    for (Int v = lo; v < 256; ++v) {
      if (kb.admits(v)) {
        expect = v;
        break;
      }
    }
    EXPECT_EQ(least_match_at_least(lo, kb).value_or(-1), expect) << lo;
  }
}

TEST(AbsintDomain, NormalizeReducesComponentsAgainstEachOther) {
  // Congruence shaves endpoints: [1, 10] with v ≡ 0 (mod 4) → [4, 8].
  AbsVal a = AbsVal::top(1, 10);
  a.cong = Congruence{4, 0};
  normalize(a);
  EXPECT_EQ(a.range.lo, 4);
  EXPECT_EQ(a.range.hi, 8);
  // Power-of-two congruence becomes known low bits.
  EXPECT_TRUE(a.bits.mask & 0b11u);
  EXPECT_EQ(a.bits.value & 0b11u, 0u);

  // A singleton interval fixes every bit and stays consistent.
  AbsVal s = AbsVal::top(13, 13);
  normalize(s);
  EXPECT_TRUE(s.admits(13));
  EXPECT_FALSE(s.admits(12));
  EXPECT_EQ(s.bits.value, 13u);

  // Contradiction between components collapses to bottom.
  AbsVal c = AbsVal::top(3, 3);
  c.cong = Congruence{2, 0};  // 3 is odd
  normalize(c);
  EXPECT_TRUE(c.is_bottom());
}

TEST(AbsintDomain, MeetAndJoinRespectGamma) {
  AbsVal even = AbsVal::top(0, 100);
  even.cong = Congruence{2, 0};
  AbsVal mult3 = AbsVal::top(30, 90);
  mult3.cong = Congruence{3, 0};
  const AbsVal both = meet(even, mult3);
  EXPECT_TRUE(both.admits(30));
  EXPECT_TRUE(both.admits(66));
  EXPECT_FALSE(both.admits(32));  // not ≡ 0 (mod 6)
  EXPECT_FALSE(both.admits(20));  // outside [30, 90]

  const AbsVal either = join(even, mult3);
  EXPECT_TRUE(either.admits(30));
  EXPECT_TRUE(either.admits(4));
  EXPECT_TRUE(either.admits(93) || !mult3.admits(93));
}

TEST(AbsintDomain, IntervalAndCompletionQueriesRefuteSoundly) {
  AbsVal a = AbsVal::top(100, 399);
  a.cong = Congruence{10, 5};  // last digit 5
  normalize(a);
  EXPECT_TRUE(interval_admitted(a, 0, 150));
  EXPECT_FALSE(interval_admitted(a, 0, 99));
  EXPECT_FALSE(interval_admitted(a, 106, 114));  // no ≡5 value inside

  // Prefix "1" (1 digit, max 3 digits): completions {1} ∪ [10,19] ∪ [100,199].
  EXPECT_TRUE(completion_admitted(a, 1, 1, 3));
  // Prefix "4": completions {4} ∪ [40,49] ∪ [400,499] — all outside [100,399].
  EXPECT_FALSE(completion_admitted(a, 4, 1, 3));
  // Prefix "40": {40} ∪ [400,409] — refuted.
  EXPECT_FALSE(completion_admitted(a, 40, 2, 3));
  // "0" cannot extend: only the value 0 itself.
  EXPECT_FALSE(completion_admitted(a, 0, 1, 3));
  // Empty prefix admits anything while non-bottom.
  EXPECT_TRUE(completion_admitted(a, 0, 0, 3));
  EXPECT_FALSE(completion_admitted(AbsVal::bottom(), 0, 0, 3));
}

// --- transfer functions ------------------------------------------------------

TEST(AbsintTransfer, LePropagatesIntervalBothWays) {
  const auto layout = small_layout({100, 100});
  // f0 + f1 <= 30 and f0 >= 25  ⇒  f1 <= 5.
  const auto set = make_set({
      smt::le(LinExpr(VarId{0}) + LinExpr(VarId{1}), LinExpr(30)),
      smt::ge(LinExpr(VarId{0}), LinExpr(25)),
  });
  const Analysis a = analyze(set, layout);
  ASSERT_FALSE(a.infeasible);
  EXPECT_EQ(a.field(0).range.lo, 25);
  EXPECT_EQ(a.field(0).range.hi, 30);
  EXPECT_EQ(a.field(1).range.hi, 5);
  EXPECT_TRUE(a.converged);
}

TEST(AbsintTransfer, EqDerivesCongruences) {
  const auto layout = small_layout({1000, 400});
  // f0 == 2 * f1  ⇒  f0 even (and f0 <= 800).
  const auto set = make_set({
      smt::eq(LinExpr(VarId{0}), LinExpr::term(2, VarId{1})),
  });
  const Analysis a = analyze(set, layout);
  ASSERT_FALSE(a.infeasible);
  EXPECT_FALSE(a.field(0).admits(3));
  EXPECT_TRUE(a.field(0).admits(4));
  EXPECT_EQ(a.field(0).range.hi, 800);
}

TEST(AbsintTransfer, EqWithPinnedVarsSolvesExactly) {
  const auto layout = small_layout({100, 100, 100});
  // f0 + f1 + f2 == 60, f1 == 10, f2 == 20  ⇒  f0 == 30.
  const auto set = make_set({
      smt::eq(LinExpr(VarId{0}) + LinExpr(VarId{1}) + LinExpr(VarId{2}),
              LinExpr(60)),
      smt::eq(LinExpr(VarId{1}), LinExpr(10)),
      smt::eq(LinExpr(VarId{2}), LinExpr(20)),
  });
  const Analysis a = analyze(set, layout);
  ASSERT_FALSE(a.infeasible);
  EXPECT_EQ(a.field(0).range, (smt::Interval{30, 30}));
}

TEST(AbsintTransfer, DivisibilityContradictionIsBottom) {
  const auto layout = small_layout({100});
  // 2 * f0 == 7 has no integer solution.
  const auto set = make_set({
      smt::eq(LinExpr::term(2, VarId{0}), LinExpr(7)),
  });
  const Analysis a = analyze(set, layout);
  EXPECT_TRUE(a.infeasible);
}

TEST(AbsintTransfer, DisjunctionJoinsBranches) {
  const auto layout = small_layout({100});
  // f0 <= 10 OR f0 >= 90: hull [0, 100], but meet with f0 == 50 is bottom.
  const auto disj = smt::lor(smt::le(LinExpr(VarId{0}), LinExpr(10)),
                             smt::ge(LinExpr(VarId{0}), LinExpr(90)));
  {
    const Analysis a = analyze(make_set({disj}), layout);
    ASSERT_FALSE(a.infeasible);
    EXPECT_EQ(a.field(0).range.lo, 0);
    EXPECT_EQ(a.field(0).range.hi, 100);
  }
  {
    const Analysis a = analyze(
        make_set({disj, smt::eq(LinExpr(VarId{0}), LinExpr(50))}), layout);
    EXPECT_TRUE(a.infeasible);
  }
}

TEST(AbsintTransfer, NeShavesEndpoints) {
  const auto layout = small_layout({10});
  const auto set = make_set({
      smt::ne(LinExpr(VarId{0}), LinExpr(0)),
      smt::ne(LinExpr(VarId{0}), LinExpr(10)),
  });
  const Analysis a = analyze(set, layout);
  ASSERT_FALSE(a.infeasible);
  EXPECT_EQ(a.field(0).range, (smt::Interval{1, 9}));
}

TEST(AbsintTransfer, ImplicationChainsReachFixpoint) {
  const auto l = telemetry::telemetry_row_layout(telemetry::Limits{});
  const auto parsed = rules::parse_rules(
      "total <= 300\n"
      "total >= 100\n"
      "sum(fine) == total\n",
      l);
  ASSERT_TRUE(parsed.ok());
  const Analysis a = analyze(parsed.rules, l);
  ASSERT_FALSE(a.infeasible);
  EXPECT_EQ(a.field(0).range.lo, 100);
  EXPECT_EQ(a.field(0).range.hi, 300);
}

// --- soundness property vs the solver ---------------------------------------

// Random rule sets: every solver model must be admitted by the fixpoint
// state, and an abstractly infeasible set must be unsat. (The heavy 1000-
// query version with prefix/interval queries runs as `lejit_cli absint-diff`
// under the `diff` ctest label; this is the fast in-binary property.)
TEST(AbsintSoundness, SolverModelsAreAlwaysAdmitted) {
  std::mt19937_64 rng(20260808);
  const auto uniform = [&](Int lo, Int hi) {
    return std::uniform_int_distribution<Int>(lo, hi)(rng);
  };
  for (int round = 0; round < 60; ++round) {
    const int nv = static_cast<int>(uniform(2, 4));
    std::vector<Int> maxima;
    for (int i = 0; i < nv; ++i) maxima.push_back(uniform(5, 200));
    const auto layout = small_layout(maxima);
    std::vector<smt::Formula> formulas;
    const int nrules = static_cast<int>(uniform(1, 3));
    for (int r = 0; r < nrules; ++r) {
      const auto expr = [&] {
        LinExpr e;
        const int nterms = static_cast<int>(uniform(1, 3));
        for (int t = 0; t < nterms; ++t) {
          Int c = uniform(-3, 3);
          if (c == 0) c = 1;
          e += LinExpr::term(c, VarId{static_cast<int>(uniform(0, nv - 1))});
        }
        return e;
      };
      switch (uniform(0, 3)) {
        case 0: formulas.push_back(smt::le(expr(), LinExpr(uniform(-20, 200)))); break;
        case 1: formulas.push_back(smt::ge(expr(), LinExpr(uniform(-20, 60)))); break;
        case 2: formulas.push_back(smt::eq(expr(), LinExpr(uniform(0, 100)))); break;
        default:
          formulas.push_back(smt::lor(smt::le(expr(), LinExpr(uniform(0, 40))),
                                      smt::ge(expr(), LinExpr(uniform(40, 90)))));
      }
    }
    const auto set = make_set(std::move(formulas));
    const Analysis a = analyze(set, layout);

    smt::Solver solver;
    rules::declare_fields(solver, layout);
    rules::assert_rules(solver, set);
    const smt::CheckResult r = solver.check();
    if (a.infeasible) {
      EXPECT_EQ(r, smt::CheckResult::kUnsat) << "round " << round;
      continue;
    }
    if (r != smt::CheckResult::kSat) continue;
    for (int i = 0; i < nv; ++i) {
      const smt::Int v = solver.model_value(VarId{i});
      EXPECT_TRUE(a.field(i).admits(v))
          << "round " << round << " field " << i << " value " << v;
    }
  }
}

// --- differential harness ----------------------------------------------------

TEST(AbsintDiff, CleanDomainPassesAgainstMinismt) {
  diff::Config config;
  config.queries = 400;
  config.seed = 3;
  const diff::Report report = diff::run(
      config, [] { return std::make_unique<smt::MinismtBackend>(); });
  EXPECT_TRUE(report.ok()) << diff::to_text(report);
  EXPECT_GT(report.refutations, 0);
  EXPECT_EQ(report.mismatches, 0);
}

TEST(AbsintDiff, InjectedUnsoundDomainIsCaught) {
  // The deliberately broken ≤ transfer function must be detected, and the
  // repro must carry a usable transcript.
  diff::Config config;
  config.queries = 1000;
  config.seed = 3;
  config.domain.test_unsound_tighten = true;
  const diff::Report report = diff::run(
      config, [] { return std::make_unique<smt::MinismtBackend>(); });
  EXPECT_GT(report.mismatches, 0) << diff::to_text(report);
  EXPECT_NE(report.first_mismatch.find("(check-sat)"), std::string::npos);
  EXPECT_NE(report.first_mismatch.find("declare"), std::string::npos);
}

}  // namespace
}  // namespace lejit::absint
