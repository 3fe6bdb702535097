// lejit::plan unit + property tests (DESIGN.md §11).
//
// The load-bearing claims under test:
//   1. partition() is a true partition: every rule in exactly one cluster
//      (or constant_rules), clusters variable-disjoint, field_cluster
//      consistent with cluster membership.
//   2. Digit-mask tables agree with brute-force enumeration of the feasible
//      set — always/never bits are solver-verified facts, not heuristics.
//   3. The serialized artifact round-trips losslessly, rejects malformed
//      input, and a tampered fingerprint is refused by the decoder.
//   4. A starved compile budget degrades to *unverified* rows and an
//      inactive plan — never to wrong masks.
//   5. Decoding with a plan (fresh or cluster-merged) is bit-identical to
//      decoding without one, while actually serving table hits and sliced
//      queries.
//   6. Layouts with fewer fields than the telemetry schema parse, and decode
//      alike in every cache × plan mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/decoder.hpp"
#include "core/transition.hpp"
#include "lm/ngram.hpp"
#include "plan/plan.hpp"
#include "rules/checker.hpp"
#include "rules/miner.hpp"
#include "rules/rule.hpp"
#include "smt/formula.hpp"
#include "telemetry/generator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lejit::plan {
namespace {

using core::DecodeResult;
using core::DecoderConfig;
using core::GuidanceMode;
using core::GuidedDecoder;
using telemetry::Window;

// Shared fixture (mirrors test_solver_cache.cpp): a synthetic fleet, a
// trained n-gram over its rows, and a mined rule set.
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

rules::Rule make_rule(std::string description, smt::Formula f) {
  rules::Rule r;
  r.description = std::move(description);
  r.kind = rules::RuleKind::kManual;
  r.formula = std::move(f);
  return r;
}

telemetry::RowLayout two_field_layout() {
  telemetry::RowLayout layout;
  layout.fields.push_back({"T=", "x", 99, false});
  layout.fields.push_back({" E=", "y", 99, false});
  layout.suffix = "\n";
  return layout;
}

// --- partition structure -----------------------------------------------------

TEST(PlanPartition, IsAPartitionAndVariableDisjoint) {
  const DecodePlan p = partition(env().mined, env().layout);
  ASSERT_EQ(p.num_fields, env().layout.num_fields());
  ASSERT_EQ(p.num_rules, env().mined.size());

  // Every rule lands in exactly one cluster or in constant_rules.
  std::vector<int> owner(env().mined.size(), -1);
  for (std::size_t c = 0; c < p.clusters.size(); ++c)
    for (const std::size_t r : p.clusters[c].rules) {
      ASSERT_LT(r, owner.size());
      EXPECT_EQ(owner[r], -1) << "rule " << r << " in two clusters";
      owner[r] = static_cast<int>(c);
    }
  for (const std::size_t r : p.constant_rules) {
    EXPECT_EQ(owner[r], -1);
    owner[r] = static_cast<int>(p.clusters.size());
  }
  for (std::size_t r = 0; r < owner.size(); ++r)
    EXPECT_NE(owner[r], -1) << "rule " << r << " unassigned";

  // Clusters are variable-disjoint and consistent with field_cluster.
  std::set<int> seen_fields;
  for (std::size_t c = 0; c < p.clusters.size(); ++c) {
    for (const int f : p.clusters[c].fields) {
      EXPECT_TRUE(seen_fields.insert(f).second)
          << "field " << f << " in two clusters";
      ASSERT_GE(f, 0);
      ASSERT_LT(f, p.num_fields);
      EXPECT_EQ(p.field_cluster[static_cast<std::size_t>(f)],
                static_cast<int>(c));
    }
  }
  for (int f = 0; f < p.num_fields; ++f) {
    if (!seen_fields.count(f)) {
      EXPECT_EQ(p.field_cluster[static_cast<std::size_t>(f)], -1);
    }
  }

  // A rule's referenced fields all live in its cluster.
  for (std::size_t c = 0; c < p.clusters.size(); ++c) {
    for (const std::size_t r : p.clusters[c].rules) {
      for (const int f :
           rules::referenced_fields(env().mined.rules[r].formula)) {
        if (f >= 0 && f < p.num_fields) {
          EXPECT_EQ(p.field_cluster[static_cast<std::size_t>(f)],
                    static_cast<int>(c));
        }
      }
    }
  }
}

// --- digit tables vs. brute force --------------------------------------------

// Reachable full values of `p` under the transition system: p terminated
// as-is, or any syntactically legal digit extension, recursively. Mirrors
// prefix_completion_formula's semantics with plain set arithmetic.
void reachable_values(const core::DigitPrefix& p, int max_digits,
                      std::set<smt::Int>* out) {
  if (!p.empty()) out->insert(p.value);
  if (p.empty() || p.can_extend(max_digits))
    for (int d = 0; d <= 9; ++d) {
      const core::DigitPrefix np = p.extended(d);
      if (core::prefix_syntactically_ok(np, max_digits))
        reachable_values(np, max_digits, out);
    }
}

bool completable(const core::DigitPrefix& p, int max_digits,
                 const std::set<smt::Int>& feasible) {
  std::set<smt::Int> reach;
  reachable_values(p, max_digits, &reach);
  for (const smt::Int v : reach)
    if (feasible.count(v)) return true;
  return false;
}

// Re-derives the table for one field from its known feasible value set and
// requires every verified row's bits to match exactly.
void expect_table_matches(const DigitTable& table, smt::Int max_value,
                          const std::set<smt::Int>& feasible) {
  const int m = core::digits_for(max_value);
  ASSERT_EQ(table.max_digits, m);
  std::vector<core::DigitPrefix> level = {core::DigitPrefix{}};
  for (int k = 0; k <= m; ++k) {
    std::uint16_t always = 0;
    std::uint16_t never = 0;
    if (k >= 1 && !level.empty()) {
      std::size_t sat = 0;
      for (const auto& p : level)
        if (feasible.count(p.value)) ++sat;
      if (sat == level.size()) always |= 1u << kTerminatorBit;
      if (sat == 0) never |= 1u << kTerminatorBit;
    }
    std::vector<core::DigitPrefix> next_level;
    if (k < m)
      for (int d = 0; d <= 9; ++d) {
        std::size_t extendable = 0;
        std::size_t sat = 0;
        for (const auto& p : level) {
          if (!p.can_extend(m)) continue;
          const core::DigitPrefix np = p.extended(d);
          if (!core::prefix_syntactically_ok(np, m)) continue;
          ++extendable;
          if (completable(np, m, feasible)) {
            ++sat;
            next_level.push_back(np);
          }
        }
        if (extendable > 0 && sat == extendable) always |= 1u << d;
        if (extendable > 0 && sat == 0) never |= 1u << d;
      }
    if (table.row_verified(k)) {
      EXPECT_EQ(table.always[static_cast<std::size_t>(k)], always)
          << "always row " << k;
      EXPECT_EQ(table.never[static_cast<std::size_t>(k)], never)
          << "never row " << k;
    }
    level = std::move(next_level);
  }
}

TEST(PlanTables, MatchBruteForceEnumeration) {
  // x constrained to {7} ∪ [17, 42] (a hull with a hole — exactly what
  // interval reasoning alone gets wrong); y entirely unconstrained.
  const telemetry::RowLayout layout = two_field_layout();
  rules::RuleSet set;
  const smt::VarId x{0};
  set.rules.push_back(make_rule(
      "x in {7} u [17,42]",
      smt::lor(smt::land(smt::ge(smt::LinExpr(x), smt::LinExpr(smt::Int{17})),
                         smt::le(smt::LinExpr(x), smt::LinExpr(smt::Int{42}))),
               smt::eq(smt::LinExpr(x), smt::LinExpr(smt::Int{7})))));

  const DecodePlan p = compile(set, layout);
  ASSERT_TRUE(p.active());
  ASSERT_EQ(p.tables.size(), 2u);
  ASSERT_EQ(p.field_cluster[0], 0);
  ASSERT_EQ(p.field_cluster[1], -1);  // no rule references y

  std::set<smt::Int> x_feasible;
  x_feasible.insert(7);
  for (smt::Int v = 17; v <= 42; ++v) x_feasible.insert(v);
  std::set<smt::Int> y_feasible;
  for (smt::Int v = 0; v <= 99; ++v) y_feasible.insert(v);

  // Everything fit the default budget, so every row must be verified.
  for (const DigitTable& t : p.tables)
    for (int k = 0; k <= t.max_digits; ++k)
      EXPECT_TRUE(t.row_verified(k));
  expect_table_matches(p.tables[0], 99, x_feasible);
  expect_table_matches(p.tables[1], 99, y_feasible);
}

TEST(PlanTables, MinedRuleSetRowsVerifyUnderDefaultBudget) {
  const DecodePlan p = compile(env().mined, env().layout);
  ASSERT_TRUE(p.active());
  ASSERT_EQ(p.tables.size(), static_cast<std::size_t>(p.num_fields));
  // Row 0 is the cheapest claim (10 completion checks); it must verify for
  // every field under the default budget on this schema.
  for (const DigitTable& t : p.tables) EXPECT_TRUE(t.row_verified(0));
}

// --- serialization ------------------------------------------------------------

TEST(PlanSerialization, RoundTripsLosslessly) {
  const DecodePlan p = compile(env().mined, env().layout);
  const DecodePlan q = from_json(to_json(p));
  EXPECT_EQ(q.fingerprint, p.fingerprint);
  EXPECT_EQ(q.num_fields, p.num_fields);
  EXPECT_EQ(q.num_rules, p.num_rules);
  EXPECT_EQ(q.satisfiable, p.satisfiable);
  EXPECT_EQ(q.partition_verified, p.partition_verified);
  EXPECT_EQ(q.field_cluster, p.field_cluster);
  ASSERT_EQ(q.clusters.size(), p.clusters.size());
  for (std::size_t c = 0; c < p.clusters.size(); ++c) {
    EXPECT_EQ(q.clusters[c].rules, p.clusters[c].rules);
    EXPECT_EQ(q.clusters[c].fields, p.clusters[c].fields);
    EXPECT_EQ(q.clusters[c].satisfiable, p.clusters[c].satisfiable);
  }
  EXPECT_EQ(q.constant_rules, p.constant_rules);
  ASSERT_EQ(q.tables.size(), p.tables.size());
  for (std::size_t f = 0; f < p.tables.size(); ++f) {
    EXPECT_EQ(q.tables[f].max_digits, p.tables[f].max_digits);
    EXPECT_EQ(q.tables[f].always, p.tables[f].always);
    EXPECT_EQ(q.tables[f].never, p.tables[f].never);
    EXPECT_EQ(q.tables[f].verified, p.tables[f].verified);
  }
  // And a second trip through text is a fixed point.
  EXPECT_EQ(to_json(q), to_json(p));
}

TEST(PlanSerialization, MalformedInputThrows) {
  EXPECT_THROW(from_json(""), util::RuntimeError);
  EXPECT_THROW(from_json("{"), util::RuntimeError);
  EXPECT_THROW(from_json("[1,2,3]"), util::RuntimeError);
  EXPECT_THROW(from_json("{\"version\": 999}"), util::RuntimeError);
}

TEST(PlanSerialization, StaleFingerprintRejectedByDecoder) {
  DecodePlan p = compile(env().mined, env().layout);
  p.fingerprint ^= 1;  // tamper
  DecoderConfig config{.mode = GuidanceMode::kFull};
  config.plan = std::move(p);
  EXPECT_THROW(GuidedDecoder(*env().model, env().tokenizer, env().layout,
                             env().mined, std::move(config)),
               util::RuntimeError);
  // A plan compiled for a *different rule set* is equally stale.
  DecoderConfig config2{.mode = GuidanceMode::kFull};
  config2.plan = compile(env().manual, env().layout);
  EXPECT_THROW(GuidedDecoder(*env().model, env().tokenizer, env().layout,
                             env().mined, std::move(config2)),
               util::RuntimeError);
}

// --- budget degradation -------------------------------------------------------

TEST(PlanBudget, StarvedCompileDegradesToInactiveNeverWrong) {
  Config starved;
  starved.check_max_nodes = 1;  // every check returns kUnknown
  const DecodePlan p = compile(env().mined, env().layout, starved);
  EXPECT_FALSE(p.partition_verified);
  EXPECT_FALSE(p.active());
  // An inactive plan loads fine and rides along inert: decode behavior and
  // text match a plan-free decoder exactly, with zero plan stats.
  DecoderConfig with_plan{.mode = GuidanceMode::kFull};
  with_plan.plan = p;
  GuidedDecoder a(*env().model, env().tokenizer, env().layout, env().mined,
                  std::move(with_plan));
  GuidedDecoder b(*env().model, env().tokenizer, env().layout, env().mined,
                  DecoderConfig{.mode = GuidanceMode::kFull});
  for (int seed = 0; seed < 6; ++seed) {
    util::Rng ra(static_cast<std::uint64_t>(seed));
    util::Rng rb(static_cast<std::uint64_t>(seed));
    const DecodeResult rap = a.generate(ra);
    const DecodeResult rbp = b.generate(rb);
    EXPECT_EQ(rap.text, rbp.text) << "seed " << seed;
    EXPECT_EQ(rap.stats.plan_table_hits, 0);
    EXPECT_EQ(rap.stats.plan_sliced_queries, 0);
  }
}

// --- decode equivalence -------------------------------------------------------

void expect_identical_rows(GuidedDecoder& planned, GuidedDecoder& plain,
                           int seed, std::string_view prompt,
                           DecodeResult* planned_out = nullptr) {
  util::Rng a(static_cast<std::uint64_t>(seed));
  util::Rng b(static_cast<std::uint64_t>(seed));
  const DecodeResult rp = planned.generate(a, prompt);
  const DecodeResult rq = plain.generate(b, prompt);
  ASSERT_EQ(rp.text, rq.text) << "seed " << seed;
  EXPECT_EQ(rp.ok, rq.ok) << "seed " << seed;
  EXPECT_EQ(rp.reason, rq.reason) << "seed " << seed;
  EXPECT_EQ(rp.recoveries, rq.recoveries) << "seed " << seed;
  EXPECT_EQ(rp.stats.interventions, rq.stats.interventions) << "seed " << seed;
  EXPECT_EQ(rp.stats.masked_steps, rq.stats.masked_steps) << "seed " << seed;
  EXPECT_EQ(rq.stats.plan_table_hits, 0);
  EXPECT_EQ(rq.stats.plan_sliced_queries, 0);
  if (planned_out) *planned_out = rp;
}

TEST(PlanDecode, BitIdenticalWithAndWithoutPlan) {
  DecoderConfig planned_cfg{.mode = GuidanceMode::kFull};
  planned_cfg.compile_plan = true;
  GuidedDecoder planned(*env().model, env().tokenizer, env().layout,
                        env().mined, std::move(planned_cfg));
  GuidedDecoder plain(*env().model, env().tokenizer, env().layout,
                      env().mined, DecoderConfig{.mode = GuidanceMode::kFull});
  ASSERT_TRUE(planned.decode_plan().has_value());
  ASSERT_TRUE(planned.decode_plan()->active());

  std::int64_t table_hits = 0;
  std::int64_t sliced = 0;
  DecodeResult rp;
  for (int seed = 0; seed < 12; ++seed) {  // synthesis: empty prompt
    expect_identical_rows(planned, plain, seed, {}, &rp);
    table_hits += rp.stats.plan_table_hits;
    sliced += rp.stats.plan_sliced_queries;
  }
  for (int seed = 0; seed < 12; ++seed) {  // imputation: coarse prompt
    const Window& truth =
        env().test[static_cast<std::size_t>(seed) % env().test.size()];
    expect_identical_rows(planned, plain, 500 + seed,
                          telemetry::imputation_prompt(truth), &rp);
    table_hits += rp.stats.plan_table_hits;
    sliced += rp.stats.plan_sliced_queries;
  }
  // The equivalence is only meaningful if the plan actually answered.
  EXPECT_GT(table_hits, 0);
  EXPECT_GT(sliced, 0);
}

TEST(PlanDecode, BitIdenticalWithCacheDisabled) {
  DecoderConfig planned_cfg{.mode = GuidanceMode::kFull};
  planned_cfg.compile_plan = true;
  planned_cfg.cache = false;
  GuidedDecoder planned(*env().model, env().tokenizer, env().layout,
                        env().mined, std::move(planned_cfg));
  DecoderConfig plain_cfg{.mode = GuidanceMode::kFull};
  plain_cfg.cache = false;
  GuidedDecoder plain(*env().model, env().tokenizer, env().layout,
                      env().mined, std::move(plain_cfg));
  for (int seed = 0; seed < 6; ++seed)
    expect_identical_rows(planned, plain, 40 + seed, {});
  for (int seed = 0; seed < 6; ++seed) {
    const Window& truth =
        env().test[static_cast<std::size_t>(seed) % env().test.size()];
    expect_identical_rows(planned, plain, 540 + seed,
                          telemetry::imputation_prompt(truth));
  }
}

TEST(PlanDecode, MergedClustersNeverChangeVerdicts) {
  // Two independent single-field rules on the telemetry layout: x-style
  // bound on field 0 and on field 1 → two clusters. Coarsening the
  // partition (merging them) must not change a single decoded character:
  // a merged cluster just asserts more rules per query.
  rules::RuleSet set;
  const smt::VarId f0{0};
  const smt::VarId f1{1};
  const auto& fields = env().layout.fields;
  set.rules.push_back(make_rule(
      "f0 bounded", smt::le(smt::LinExpr(f0),
                            smt::LinExpr(fields[0].max_value / 2))));
  set.rules.push_back(make_rule(
      "f1 bounded", smt::le(smt::LinExpr(f1),
                            smt::LinExpr(fields[1].max_value / 2))));

  DecodePlan fine = compile(set, env().layout);
  ASSERT_TRUE(fine.active());
  ASSERT_EQ(fine.clusters.size(), 2u);
  DecodePlan coarse = merge_clusters(fine, 0, 1);
  ASSERT_EQ(coarse.clusters.size(), 1u);
  ASSERT_TRUE(coarse.active());

  DecoderConfig fine_cfg{.mode = GuidanceMode::kFull};
  fine_cfg.plan = std::move(fine);
  DecoderConfig coarse_cfg{.mode = GuidanceMode::kFull};
  coarse_cfg.plan = std::move(coarse);
  GuidedDecoder dec_fine(*env().model, env().tokenizer, env().layout, set,
                         std::move(fine_cfg));
  GuidedDecoder dec_coarse(*env().model, env().tokenizer, env().layout, set,
                           std::move(coarse_cfg));
  GuidedDecoder dec_plain(*env().model, env().tokenizer, env().layout, set,
                          DecoderConfig{.mode = GuidanceMode::kFull});
  for (int seed = 0; seed < 8; ++seed) {
    util::Rng ra(static_cast<std::uint64_t>(seed));
    util::Rng rb(static_cast<std::uint64_t>(seed));
    util::Rng rc(static_cast<std::uint64_t>(seed));
    const DecodeResult rf = dec_fine.generate(ra);
    const DecodeResult rc_ = dec_coarse.generate(rb);
    const DecodeResult rp = dec_plain.generate(rc);
    EXPECT_EQ(rf.text, rp.text) << "seed " << seed;
    EXPECT_EQ(rc_.text, rp.text) << "seed " << seed;
  }
}

TEST(PlanDecode, LoadedArtifactMatchesCompiledPlan) {
  // plan → JSON → plan → decoder must behave exactly like compile-in-place.
  const DecodePlan compiled = compile(env().mined, env().layout);
  DecoderConfig loaded_cfg{.mode = GuidanceMode::kFull};
  loaded_cfg.plan = from_json(to_json(compiled));
  DecoderConfig direct_cfg{.mode = GuidanceMode::kFull};
  direct_cfg.plan = compiled;
  GuidedDecoder loaded(*env().model, env().tokenizer, env().layout,
                       env().mined, std::move(loaded_cfg));
  GuidedDecoder direct(*env().model, env().tokenizer, env().layout,
                       env().mined, std::move(direct_cfg));
  for (int seed = 0; seed < 6; ++seed) {
    util::Rng ra(static_cast<std::uint64_t>(seed));
    util::Rng rb(static_cast<std::uint64_t>(seed));
    EXPECT_EQ(loaded.generate(ra).text, direct.generate(rb).text)
        << "seed " << seed;
  }
}

// --- layouts smaller than the telemetry schema ------------------------------

TEST(TinyLayout, ParseRowFillsOnlyTheFieldsItHas) {
  const std::optional<Window> w =
      telemetry::parse_row("T=1 E=2", two_field_layout());
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->total, 1);
  EXPECT_EQ(w->ecn, 2);
  EXPECT_EQ(w->rtx, 0);
  EXPECT_TRUE(w->fine.empty());
}

TEST(TinyLayout, DecodesAlikeInEveryCacheAndPlanMode) {
  // Three fields, the last referenced by no rule, so plan attempts answer
  // it from its declared domain.
  telemetry::RowLayout layout = two_field_layout();
  layout.fields.push_back({" R=", "z", 99, false});
  const smt::VarId x{0};
  const smt::VarId y{1};
  rules::RuleSet set;
  set.rules.push_back(make_rule(
      "x + y <= 120", smt::le(smt::LinExpr(x) + smt::LinExpr(y),
                              smt::LinExpr(120))));
  set.rules.push_back(make_rule(
      "y >= 10", smt::le(smt::LinExpr(10), smt::LinExpr(y))));

  std::vector<std::string> reference;
  std::int64_t table_hits = 0;
  for (const bool cache : {false, true})
    for (const bool use_plan : {false, true}) {
      DecoderConfig cfg{.mode = GuidanceMode::kFull};
      cfg.cache = cache;
      cfg.compile_plan = use_plan;
      GuidedDecoder dec(*env().model, env().tokenizer, layout, set,
                        std::move(cfg));
      for (int seed = 0; seed < 16; ++seed) {
        util::Rng rng(static_cast<std::uint64_t>(seed));
        const DecodeResult r = dec.generate(rng);
        ASSERT_TRUE(r.ok && r.window) << "seed " << seed;
        EXPECT_TRUE(rules::violated_rules(set, *r.window).empty())
            << r.text;
        if (reference.size() < 16) reference.push_back(r.text);
        EXPECT_EQ(r.text, reference[static_cast<std::size_t>(seed)])
            << "cache " << cache << " plan " << use_plan << " seed " << seed;
        table_hits += r.stats.plan_table_hits;
      }
    }
  EXPECT_GT(table_hits, 0);
}

}  // namespace
}  // namespace lejit::plan
