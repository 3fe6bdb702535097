// Feasibility-cache equivalence and incremental-solver property tests
// (DESIGN.md §9). The contract under test: DecoderConfig::cache changes how
// much solver work a decode spends, never what it decodes — cached and
// uncached runs must be bit-identical for a fixed seed, and the incremental
// solver base must answer exactly like a from-scratch solve.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/decoder.hpp"
#include "fault/fault.hpp"
#include "lm/ngram.hpp"
#include "rules/checker.hpp"
#include "rules/miner.hpp"
#include "smt/formula.hpp"
#include "smt/solver.hpp"
#include "telemetry/generator.hpp"
#include "util/rng.hpp"

namespace lejit::core {
namespace {

using telemetry::Window;

// Shared fixture (mirrors test_core_decoder.cpp): a synthetic fleet, a
// trained n-gram over its rows, and manual + mined rule sets.
struct Env {
  telemetry::Dataset dataset;
  telemetry::Split split;
  telemetry::RowLayout layout;
  std::vector<Window> train;
  std::vector<Window> test;
  lm::CharTokenizer tokenizer{telemetry::row_alphabet()};
  std::unique_ptr<lm::NgramModel> model;
  rules::RuleSet manual;
  rules::RuleSet mined;
};

const Env& env() {
  static const Env e = [] {
    Env out;
    out.dataset = telemetry::generate_dataset(telemetry::GeneratorConfig{
        .num_racks = 12, .windows_per_rack = 50, .seed = 55});
    out.split = telemetry::split_by_rack(out.dataset, 2, 3);
    out.layout = telemetry::telemetry_row_layout(out.dataset.limits);
    out.train = telemetry::all_windows(out.split.train);
    out.test = telemetry::all_windows(out.split.test);
    out.model = std::make_unique<lm::NgramModel>(
        out.tokenizer.vocab_size(), lm::NgramConfig{.order = 6});
    for (const Window& w : out.train)
      out.model->observe(out.tokenizer.encode(telemetry::window_to_row(w)));
    out.manual = rules::manual_rules(out.layout, out.dataset.limits);
    out.mined =
        rules::mine_rules(out.train, out.layout, out.dataset.limits).rules;
    return out;
  }();
  return e;
}

DecoderConfig with_cache(GuidanceMode mode, bool cache) {
  DecoderConfig config{.mode = mode};
  config.cache = cache;
  return config;
}

// Decode one row with each decoder from the same seed and require the two
// results to be indistinguishable to a caller.
void expect_identical_row(GuidedDecoder& cached, GuidedDecoder& uncached,
                          int seed, std::string_view prompt = {}) {
  util::Rng a(static_cast<std::uint64_t>(seed));
  util::Rng b(static_cast<std::uint64_t>(seed));
  const DecodeResult rc = cached.generate(a, prompt);
  const DecodeResult ru = uncached.generate(b, prompt);
  ASSERT_EQ(rc.text, ru.text) << "seed " << seed;
  EXPECT_EQ(rc.ok, ru.ok) << "seed " << seed;
  EXPECT_EQ(rc.reason, ru.reason) << "seed " << seed;
  EXPECT_EQ(rc.dead_end, ru.dead_end) << "seed " << seed;
  EXPECT_EQ(rc.recoveries, ru.recoveries) << "seed " << seed;
  EXPECT_EQ(rc.stats.interventions, ru.stats.interventions) << "seed " << seed;
  EXPECT_EQ(rc.stats.masked_steps, ru.stats.masked_steps) << "seed " << seed;
}

// --- cache on/off equivalence ------------------------------------------------

TEST(CacheEquivalence, SixtyFourSeededRowsAreBitIdentical) {
  // 64 rows: 40 free synthesis + 24 imputation prompts, mined rules (the
  // densest constraint set), kFull look-ahead. The cache persists inside each
  // decoder across rows — equivalence must survive a warm cache, not just a
  // cold one.
  GuidedDecoder cached(*env().model, env().tokenizer, env().layout,
                       env().mined, with_cache(GuidanceMode::kFull, true));
  GuidedDecoder uncached(*env().model, env().tokenizer, env().layout,
                         env().mined, with_cache(GuidanceMode::kFull, false));
  for (int seed = 0; seed < 40; ++seed)
    expect_identical_row(cached, uncached, seed);
  for (int seed = 0; seed < 24; ++seed) {
    const Window& truth =
        env().test[static_cast<std::size_t>(seed) % env().test.size()];
    expect_identical_row(cached, uncached, 1000 + seed,
                         telemetry::imputation_prompt(truth));
  }
  // The run must actually have exercised the cache for the test to mean
  // anything.
  EXPECT_GT(cached.cache_stats().hits, 0);
  EXPECT_GT(cached.cache_stats().misses, 0);
  EXPECT_EQ(uncached.cache_stats().hits, 0);
  EXPECT_EQ(uncached.cache_stats().misses, 0);
}

TEST(CacheEquivalence, HullModeWithRecoveryRewinds) {
  // kHull + dead-end recovery exercises the rewind path: recovery rolls the
  // walk (and the pin fingerprint) back, so stale-fingerprint bugs would
  // surface here as divergent texts or recovery counts.
  DecoderConfig on = with_cache(GuidanceMode::kHull, true);
  on.resilience.retry_budget = 3;
  DecoderConfig off = with_cache(GuidanceMode::kHull, false);
  off.resilience.retry_budget = 3;
  GuidedDecoder cached(*env().model, env().tokenizer, env().layout,
                       env().manual, on);
  GuidedDecoder uncached(*env().model, env().tokenizer, env().layout,
                         env().manual, off);
  for (int seed = 0; seed < 16; ++seed)
    expect_identical_row(cached, uncached, 300 + seed);
}

TEST(CacheEquivalence, CacheStatsStayZeroWhenDisabled) {
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().manual,
                    with_cache(GuidanceMode::kFull, false));
  util::Rng rng(9);
  ASSERT_TRUE(dec.generate(rng).ok);
  EXPECT_EQ(dec.cache_stats().hits, 0);
  EXPECT_EQ(dec.cache_stats().misses, 0);
  EXPECT_EQ(dec.cache_stats().evictions, 0);
}

// --- lazy mask resolution (DESIGN.md §9.4) ----------------------------------

// Solver work of the LazyMask 64-row runs, summed over rows.
struct LazyTotals {
  std::int64_t lazy_checks = 0;
  std::int64_t eager_checks = 0;
  std::int64_t unresolved = 0;
  std::int64_t unknowns = 0;
  std::int64_t recoveries = 0;
};

// Decodes CacheEquivalence's 64 rows (40 synthesis seeds, 24 imputation
// prompts, mined rules) under `config` with lazy_mask on and off. The two
// decoders must emit the same rows and take the same LM steps, and lazy
// resolution may never spend more solver checks on a row than eager.
LazyTotals expect_lazy_matches_eager(DecoderConfig config) {
  config.lazy_mask = true;
  GuidedDecoder lazy(*env().model, env().tokenizer, env().layout,
                     env().mined, config);
  config.lazy_mask = false;
  GuidedDecoder eager(*env().model, env().tokenizer, env().layout,
                      env().mined, config);
  LazyTotals totals;
  for (int row = 0; row < 64; ++row) {
    const bool synthesis = row < 40;
    const int seed = synthesis ? row : 1000 + row - 40;
    const std::string prompt =
        synthesis ? std::string()
                  : telemetry::imputation_prompt(
                        env().test[static_cast<std::size_t>(row - 40) %
                                   env().test.size()]);
    util::Rng a(static_cast<std::uint64_t>(seed));
    util::Rng b(static_cast<std::uint64_t>(seed));
    const DecodeResult rl = lazy.generate(a, prompt);
    const DecodeResult re = eager.generate(b, prompt);
    EXPECT_EQ(rl.text, re.text) << "seed " << seed;
    EXPECT_EQ(rl.ok, re.ok) << "seed " << seed;
    EXPECT_EQ(rl.reason, re.reason) << "seed " << seed;
    EXPECT_EQ(rl.recoveries, re.recoveries) << "seed " << seed;
    EXPECT_EQ(rl.stats.lm_calls, re.stats.lm_calls) << "seed " << seed;
    EXPECT_EQ(rl.stats.masked_steps, re.stats.masked_steps) << "seed " << seed;
    EXPECT_EQ(rl.stats.interventions, re.stats.interventions)
        << "seed " << seed;
    EXPECT_LE(rl.stats.solver_checks, re.stats.solver_checks)
        << "seed " << seed;
    EXPECT_EQ(re.stats.unresolved_candidates, 0) << "seed " << seed;
    totals.lazy_checks += rl.stats.solver_checks;
    totals.eager_checks += re.stats.solver_checks;
    totals.unresolved += rl.stats.unresolved_candidates;
    totals.unknowns += rl.stats.unknown_checks;
    totals.recoveries += rl.recoveries;
  }
  return totals;
}

// The mechanism fired: some candidate was never decided, and the lazy
// decoder spent strictly fewer solver checks overall.
void expect_lazy_saved(const LazyTotals& totals) {
  EXPECT_GT(totals.unresolved, 0);
  EXPECT_LT(totals.lazy_checks, totals.eager_checks);
}

TEST(LazyMask, SixtyFourRowsMatchEagerWithFewerChecks) {
  expect_lazy_saved(
      expect_lazy_matches_eager(with_cache(GuidanceMode::kFull, true)));
}

TEST(LazyMask, PlanOn) {
  DecoderConfig config = with_cache(GuidanceMode::kFull, true);
  config.compile_plan = true;
  expect_lazy_saved(expect_lazy_matches_eager(config));
}

TEST(LazyMask, CacheOff) {
  expect_lazy_saved(
      expect_lazy_matches_eager(with_cache(GuidanceMode::kFull, false)));
}

TEST(LazyMask, WithoutForcedLiteralSkipping) {
  // Every step calls the LM, so the phase before it stops at the first
  // legal candidate.
  DecoderConfig config = with_cache(GuidanceMode::kFull, true);
  config.skip_forced_literals = false;
  expect_lazy_saved(expect_lazy_matches_eager(config));
}

TEST(LazyMask, GreedyAndTopKResolveEagerly) {
  // Greedy picks without a draw and top-k truncates the distribution
  // first, so neither pick is the one the stop rule bounds: both decide
  // every candidate whatever lazy_mask says.
  for (const lm::SamplerConfig sampler :
       {lm::SamplerConfig{.temperature = 0.0},
        lm::SamplerConfig{.temperature = 1.0, .top_k = 3}}) {
    DecoderConfig config = with_cache(GuidanceMode::kFull, true);
    config.sampler = sampler;
    const LazyTotals totals = expect_lazy_matches_eager(config);
    EXPECT_EQ(totals.unresolved, 0);
    EXPECT_EQ(totals.lazy_checks, totals.eager_checks);
  }
}

// All of its mass on one letter token, which no digit step allows: every
// candidate's probability underflows to 0.
class LetterOnlyModel : public lm::LanguageModel {
 public:
  LetterOnlyModel(int vocab, int letter) : vocab_(vocab), letter_(letter) {}
  int vocab_size() const override { return vocab_; }
  std::vector<float> logits(std::span<const int>) const override {
    std::vector<float> out(static_cast<std::size_t>(vocab_), -2000.0f);
    out[static_cast<std::size_t>(letter_)] = 0.0f;
    return out;
  }

 private:
  int vocab_;
  int letter_;
};

TEST(LazyMask, NoLegalMassMeansNoDraw) {
  // sample_token draws no uniform when the legal tokens carry no mass; it
  // picks the best legal logit instead. A lazy step must not draw either,
  // so both decoders leave their generators in the same state.
  const LetterOnlyModel model(env().tokenizer.vocab_size(),
                              env().tokenizer.encode_char('T'));
  DecoderConfig config = with_cache(GuidanceMode::kFull, true);
  GuidedDecoder lazy(model, env().tokenizer, env().layout, env().manual,
                     config);
  config.lazy_mask = false;
  GuidedDecoder eager(model, env().tokenizer, env().layout, env().manual,
                      config);
  for (int seed = 0; seed < 4; ++seed) {
    util::Rng a(static_cast<std::uint64_t>(seed));
    util::Rng b(static_cast<std::uint64_t>(seed));
    const DecodeResult rl = lazy.generate(a);
    const DecodeResult re = eager.generate(b);
    EXPECT_TRUE(rl.ok) << rl.fail_detail;
    EXPECT_EQ(rl.text, re.text) << "seed " << seed;
    EXPECT_GT(rl.stats.masked_steps, 0);
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "seed " << seed;
  }
}

TEST(LazyMask, FiniteNodeBudgetWithFeasibleUnknowns) {
  // Under kFeasible an inconclusive check keeps its candidate, as a hull
  // witness would, so a finite budget still decodes the same rows. A budget
  // of one node leaves every live check inconclusive and makes a row dead-end
  // into a recovery; ten nodes mix conclusive and inconclusive checks.
  std::int64_t recoveries = 0;
  for (const std::int64_t nodes : {1, 10}) {
    DecoderConfig config = with_cache(GuidanceMode::kFull, true);
    config.resilience.check_max_nodes = nodes;
    config.resilience.on_unknown = UnknownPolicy::kFeasible;
    config.resilience.retry_budget = 4;
    const LazyTotals totals = expect_lazy_matches_eager(config);
    expect_lazy_saved(totals);
    EXPECT_GT(totals.unknowns, 0) << nodes << " nodes";
    recoveries += totals.recoveries;
  }
  EXPECT_GT(recoveries, 0) << "the retry budget must be exercised";
}

// --- cached unknowns respect UnknownPolicy -----------------------------------

TEST(CacheUnknowns, CachedRunHonorsFeasibleReading) {
  fault::Plan plan;
  plan.site(fault::Site::kSolverCheck).p_unknown = 1.0;
  const fault::ScopedPlan scoped{plan};

  DecoderConfig config = with_cache(GuidanceMode::kFull, true);
  config.resilience.on_unknown = UnknownPolicy::kFeasible;
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().manual,
                    config);
  // Two rows: the second replays unknown verdicts from the cache and must
  // behave exactly like the first — row completes (optimistic reading) and
  // every inconclusive answer, cached or live, is counted.
  util::Rng rng(21);
  for (int row = 0; row < 2; ++row) {
    const DecodeResult r = dec.generate(rng);
    EXPECT_TRUE(r.ok) << "row " << row << ": " << r.fail_detail;
    EXPECT_EQ(r.reason, FailReason::kNone);
    EXPECT_GT(r.stats.unknown_checks, 0) << "row " << row;
  }
}

TEST(CacheUnknowns, CachedRunHonorsInfeasibleReading) {
  fault::Plan plan;
  plan.site(fault::Site::kSolverCheck).p_unknown = 1.0;
  const fault::ScopedPlan scoped{plan};

  DecoderConfig config = with_cache(GuidanceMode::kFull, true);
  config.resilience.on_unknown = UnknownPolicy::kInfeasible;
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().manual,
                    config);
  util::Rng rng(22);
  for (int row = 0; row < 2; ++row) {
    const DecodeResult r = dec.generate(rng);
    EXPECT_FALSE(r.ok) << "row " << row;
    EXPECT_EQ(r.reason, FailReason::kEmptyMask) << "row " << row;
    EXPECT_GT(r.stats.unknown_checks, 0) << "row " << row;
  }
}

// --- incremental solver base agrees with from-scratch solves -----------------

smt::Formula random_constraint(util::Rng& rng,
                               const std::vector<smt::VarId>& vars) {
  const auto pick = [&] {
    return vars[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(vars.size()) - 1))];
  };
  const smt::Int a = rng.uniform_int(-3, 3);
  const smt::Int b = rng.uniform_int(-3, 3);
  const smt::Int c = rng.uniform_int(-25, 25);
  const smt::LinExpr lhs = a * smt::LinExpr(pick()) + b * smt::LinExpr(pick());
  switch (rng.uniform_int(0, 3)) {
    case 0: return smt::le(lhs, smt::LinExpr(c));
    case 1: return smt::ge(lhs, smt::LinExpr(c));
    case 2: return smt::lor(smt::le(lhs, smt::LinExpr(c)),
                            smt::ge(lhs, smt::LinExpr(c + 5)));
    default: return smt::ne(lhs, smt::LinExpr(c));
  }
}

TEST(IncrementalSolver, AgreesWithFreshSolverUnderPushPop) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 25; ++trial) {
    smt::SolverConfig inc_config;
    inc_config.incremental = true;
    smt::Solver inc(inc_config);
    smt::Solver fresh;
    std::vector<smt::VarId> vi, vf;
    for (int v = 0; v < 4; ++v) {
      const smt::Int lo = rng.uniform_int(-10, 0);
      const smt::Int hi = rng.uniform_int(1, 15);
      vi.push_back(inc.add_var("v" + std::to_string(v), lo, hi));
      vf.push_back(fresh.add_var("v" + std::to_string(v), lo, hi));
    }
    const auto agree = [&](int where) {
      ASSERT_EQ(inc.check(), fresh.check())
          << "trial " << trial << " @" << where;
      for (int v = 0; v < 4; ++v)
        EXPECT_EQ(inc.feasible_interval(vi[static_cast<std::size_t>(v)]),
                  fresh.feasible_interval(vf[static_cast<std::size_t>(v)]))
            << "trial " << trial << " var " << v << " @" << where;
    };
    for (int i = 0; i < 3; ++i) {
      const smt::Formula f = random_constraint(rng, vi);
      inc.add(f);
      fresh.add(f);
    }
    agree(0);
    inc.push();
    fresh.push();
    for (int i = 0; i < 2; ++i) {
      const smt::Formula f = random_constraint(rng, vi);
      inc.add(f);
      fresh.add(f);
    }
    agree(1);
    inc.pop();
    fresh.pop();
    agree(2);  // pop must restore the base exactly
    const smt::Formula assumption = random_constraint(rng, vi);
    const std::vector<smt::Formula> assumptions{assumption};
    EXPECT_EQ(inc.check_assuming(assumptions),
              fresh.check_assuming(assumptions))
        << "trial " << trial;
    agree(3);  // assumptions must not leak into the base
  }
}

TEST(IncrementalSolver, PropagatedBoundsAreASoundOverApproximation) {
  smt::SolverConfig config;
  config.incremental = true;
  smt::Solver s(config);
  const smt::VarId x = s.add_var("x", 0, 100);
  const smt::VarId y = s.add_var("y", 0, 100);
  s.add(smt::le(smt::LinExpr(x) + smt::LinExpr(y), smt::LinExpr(50)));
  s.add(smt::ge(smt::LinExpr(x), smt::LinExpr(10)));
  const smt::Interval px = s.propagated_bounds(x);
  const smt::Interval exact = s.feasible_interval(x);
  EXPECT_FALSE(px.is_empty());
  EXPECT_LE(px.lo, exact.lo);
  EXPECT_GE(px.hi, exact.hi);
  // Scoped tightening is visible, and pop restores the wider bounds.
  s.push();
  s.add(smt::le(smt::LinExpr(x), smt::LinExpr(20)));
  EXPECT_LE(s.propagated_bounds(x).hi, 20);
  s.pop();
  EXPECT_EQ(s.propagated_bounds(x), px);
  // A contradiction is reported as an empty interval.
  s.push();
  s.add(smt::ge(smt::LinExpr(x), smt::LinExpr(90)));
  EXPECT_TRUE(s.propagated_bounds(x).is_empty());
  s.pop();
}

}  // namespace
}  // namespace lejit::core
