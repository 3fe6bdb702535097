#include <gtest/gtest.h>

#include "core/decoder.hpp"
#include "lm/ngram.hpp"
#include "rules/checker.hpp"
#include "rules/miner.hpp"
#include "rules/parser.hpp"
#include "telemetry/generator.hpp"

namespace lejit::core {
namespace {

using telemetry::Window;

// Shared fixture: a synthetic fleet, a trained n-gram LM over its row text,
// and mined + manual rule sets.
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
        .num_racks = 18, .windows_per_rack = 60, .seed = 21});
    out.split = telemetry::split_by_rack(out.dataset, 3, 5);
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

TEST(GuidedDecoder, RejectsMismatchedTokenizer) {
  const lm::CharTokenizer small("0123456789");
  const lm::NgramModel model(small.vocab_size());
  EXPECT_THROW(GuidedDecoder(model, small, env().layout, env().manual),
               util::PreconditionError);
}

TEST(GuidedDecoder, SyntaxModeAlwaysParses) {
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout,
                    rules::RuleSet{},
                    DecoderConfig{.mode = GuidanceMode::kSyntax});
  util::Rng rng(1);
  for (int i = 0; i < 30; ++i) {
    const DecodeResult r = dec.generate(rng);
    ASSERT_TRUE(r.ok) << r.text;
    ASSERT_TRUE(r.window.has_value());
    EXPECT_EQ(r.stats.solver_checks, 0) << "grammar mode must not call the solver";
  }
}

TEST(GuidedDecoder, FullModeCompliesWithManualRules) {
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().manual,
                    DecoderConfig{.mode = GuidanceMode::kFull});
  util::Rng rng(2);
  for (int i = 0; i < 25; ++i) {
    const DecodeResult r = dec.generate(rng);
    ASSERT_TRUE(r.ok) << r.text;
    EXPECT_TRUE(rules::violated_rules(env().manual, *r.window).empty())
        << "violating row: " << r.text;
  }
}

TEST(GuidedDecoder, FullModeCompliesWithHundredsOfMinedRules) {
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().mined,
                    DecoderConfig{.mode = GuidanceMode::kFull});
  util::Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const DecodeResult r = dec.generate(rng);
    ASSERT_TRUE(r.ok) << r.text;
    EXPECT_TRUE(rules::violated_rules(env().mined, *r.window).empty())
        << "violating row: " << r.text;
  }
}

TEST(GuidedDecoder, ImputationPreservesThePrompt) {
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().manual,
                    DecoderConfig{.mode = GuidanceMode::kFull});
  util::Rng rng(4);
  for (int i = 0; i < 15; ++i) {
    const Window& truth = env().test[static_cast<std::size_t>(i * 7)];
    const std::string prompt = telemetry::imputation_prompt(truth);
    const DecodeResult r = dec.generate(rng, prompt);
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.text.starts_with(prompt));
    EXPECT_EQ(r.window->total, truth.total);
    EXPECT_EQ(r.window->ecn, truth.ecn);
    EXPECT_EQ(r.window->conn, truth.conn);
  }
}

TEST(GuidedDecoder, ImputedWindowsSatisfyAllRulesGivenFeasiblePrompts) {
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().mined,
                    DecoderConfig{.mode = GuidanceMode::kFull});
  util::Rng rng(5);
  int feasible = 0, infeasible = 0;
  for (int i = 0; i < 12; ++i) {
    const Window& truth = env().test[static_cast<std::size_t>(i * 11)];
    const DecodeResult r =
        dec.generate(rng, telemetry::imputation_prompt(truth));
    if (r.infeasible_prompt) {
      ++infeasible;
      continue;
    }
    ++feasible;
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(rules::violated_rules(env().mined, *r.window).empty())
        << r.text;
  }
  EXPECT_GT(feasible, infeasible)
      << "slack-mined rules should admit most unseen prompts";
}

TEST(GuidedDecoder, SumRuleOftenForcesTheFinalValue) {
  // With the exact-accounting rule active, the last fine slot is uniquely
  // determined (paper Fig. 1b, step 5): verify via the imputation path that
  // the produced window satisfies the sum exactly.
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().manual,
                    DecoderConfig{.mode = GuidanceMode::kFull});
  util::Rng rng(6);
  for (int i = 0; i < 10; ++i) {
    const Window& truth = env().test[static_cast<std::size_t>(i)];
    const DecodeResult r =
        dec.generate(rng, telemetry::imputation_prompt(truth));
    ASSERT_TRUE(r.ok);
    smt::Int sum = 0;
    for (const auto v : r.window->fine) sum += v;
    EXPECT_EQ(sum, truth.total);
  }
}

TEST(GuidedDecoder, StatsAreCoherent) {
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().manual,
                    DecoderConfig{.mode = GuidanceMode::kFull});
  util::Rng rng(7);
  const DecodeResult r = dec.generate(rng);
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.stats.chars, 0);
  EXPECT_GT(r.stats.lm_calls, 0);
  EXPECT_GT(r.stats.solver_checks, 0);
  EXPECT_GE(r.stats.masked_steps, r.stats.interventions);
  EXPECT_GE(r.stats.removed_mass, 0.0);
  EXPECT_LE(r.stats.mean_removed_mass(), 1.0);
}

TEST(GuidedDecoder, MinimallyInvasiveOnAWellTrainedModel) {
  // The n-gram has memorized mostly-compliant rows, so LeJIT should rarely
  // have to remove much probability mass (the paper's §3 argument).
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().manual,
                    DecoderConfig{.mode = GuidanceMode::kFull});
  util::Rng rng(8);
  double removed = 0.0;
  std::int64_t steps = 0;
  for (int i = 0; i < 20; ++i) {
    const DecodeResult r = dec.generate(rng);
    removed += r.stats.removed_mass;
    steps += r.stats.masked_steps;
  }
  ASSERT_GT(steps, 0);
  EXPECT_LT(removed / static_cast<double>(steps), 0.35)
      << "guidance should prune a minority of the LM's probability mass";
}

TEST(GuidedDecoder, UnguidedModeNeverTouchesTheSolver) {
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().manual,
                    DecoderConfig{.mode = GuidanceMode::kNone});
  util::Rng rng(9);
  const DecodeResult r = dec.generate(rng);
  EXPECT_EQ(r.stats.solver_checks, 0);
  // A 6-gram over this tiny grammar emits parseable rows most of the time,
  // but nothing enforces it — ok may legitimately be false.
}

TEST(GuidedDecoder, UnguidedModeRespectsTokenCap) {
  // An untrained model babbles; the cap must bound the row length.
  const lm::NgramModel fresh(env().tokenizer.vocab_size());
  GuidedDecoder dec(fresh, env().tokenizer, env().layout, rules::RuleSet{},
                    DecoderConfig{.mode = GuidanceMode::kNone,
                                  .max_free_tokens = 40});
  util::Rng rng(10);
  const DecodeResult r = dec.generate(rng);
  EXPECT_LE(r.stats.chars, 40);
}

TEST(GuidedDecoder, InfeasiblePromptIsReportedNotGenerated) {
  // A prompt with ecn > 0 but total = 0 contradicts the burst implication
  // (no fine value can reach BW/2 when they must all be 0).
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().manual,
                    DecoderConfig{.mode = GuidanceMode::kFull});
  util::Rng rng(11);
  const DecodeResult r = dec.generate(rng, "T=0 E=12 R=0 C=50 G=0|");
  EXPECT_TRUE(r.infeasible_prompt);
  EXPECT_FALSE(r.ok);
}

TEST(GuidedDecoder, InfeasibleRuleSetFailsCleanly) {
  // A contradictory rule set fails the decode under the default
  // configuration: no crash, no row.
  const auto parsed =
      rules::parse_rules("total >= 10\ntotal <= 5\n", env().layout);
  ASSERT_TRUE(parsed.ok());
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, parsed.rules);
  util::Rng rng(1);
  EXPECT_FALSE(dec.generate(rng).ok);
}

TEST(GuidedDecoder, PromptOutsideAlphabetIsAPrecondition) {
  // The alphabet is checked before any syntax walk: '#' would otherwise
  // trip the walk's terminator invariant first.
  DecoderConfig config;
  config.compile_plan = true;
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().mined,
                    std::move(config));
  ASSERT_TRUE(dec.decode_plan() && dec.decode_plan()->active());
  util::Rng rng(1);
  EXPECT_THROW(dec.generate(rng, "T=1#"), util::PreconditionError);
}

// --- hull-only guidance (the "no exact look-ahead" ablation) -----------------

TEST(HullGuidance, CompliantOrDeadEndNeverViolating) {
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().manual,
                    DecoderConfig{.mode = GuidanceMode::kHull});
  util::Rng rng(31);
  int ok_count = 0, dead_ends = 0;
  for (int i = 0; i < 25; ++i) {
    const DecodeResult r = dec.generate(rng);
    if (r.dead_end) {
      ++dead_ends;
      EXPECT_FALSE(r.ok);
      continue;
    }
    ASSERT_TRUE(r.ok) << r.text;
    ++ok_count;
    EXPECT_TRUE(rules::violated_rules(env().manual, *r.window).empty())
        << "hull guidance must still be sound on completed rows: " << r.text;
  }
  EXPECT_GT(ok_count, 0);
  (void)dead_ends;  // may legitimately be zero on easy rule sets
}

TEST(HullGuidance, DeadEndsInAnEngineeredHole) {
  // Rules carve {0..10} ∪ {30..40} for I0; the hull [0,40] cannot see the
  // hole. An LM trained to always write I0 = 15 walks straight into it.
  rules::RuleSet holey;
  const smt::VarId i0{rules::field_index(env().layout, "I0")};
  holey.rules.push_back(rules::Rule{
      .description = "I0 in {0..10} u {30..40}",
      .kind = rules::RuleKind::kManual,
      .formula = smt::land(
          smt::lor(smt::le(smt::LinExpr(i0), smt::LinExpr(10)),
                   smt::ge(smt::LinExpr(i0), smt::LinExpr(30))),
          smt::le(smt::LinExpr(i0), smt::LinExpr(40))),
      .uses_fine = true,
  });

  // Deterministic LM: memorizes one row whose I0 is 15 (inside the hole).
  telemetry::Window w = env().train.front();
  w.fine.assign(w.fine.size(), 15);
  w.total = 15 * static_cast<smt::Int>(w.fine.size());
  w.ecn = 0;
  w.rtx = 0;
  w.egress = 10;
  lm::NgramModel memorizer(env().tokenizer.vocab_size(),
                           lm::NgramConfig{.order = 8});
  for (int i = 0; i < 50; ++i)
    memorizer.observe(env().tokenizer.encode(telemetry::window_to_row(w)));

  const lm::SamplerConfig greedy{.temperature = 0.0};
  util::Rng rng(32);

  GuidedDecoder hull(memorizer, env().tokenizer, env().layout, holey,
                     DecoderConfig{.mode = GuidanceMode::kHull,
                                   .sampler = greedy});
  const DecodeResult hull_result =
      hull.generate(rng, telemetry::imputation_prompt(w));
  EXPECT_TRUE(hull_result.dead_end)
      << "hull masking cannot see the hole: " << hull_result.text;

  GuidedDecoder full(memorizer, env().tokenizer, env().layout, holey,
                     DecoderConfig{.mode = GuidanceMode::kFull,
                                   .sampler = greedy});
  const DecodeResult full_result =
      full.generate(rng, telemetry::imputation_prompt(w));
  ASSERT_TRUE(full_result.ok) << "exact look-ahead never dead-ends";
  EXPECT_TRUE(rules::violated_rules(holey, *full_result.window).empty());
  const smt::Int i0_value = full_result.window->fine[0];
  EXPECT_TRUE((i0_value >= 0 && i0_value <= 10) ||
              (i0_value >= 30 && i0_value <= 40))
      << "I0 = " << i0_value;
}

TEST(HullGuidance, FullModeNeverDeadEnds) {
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().mined,
                    DecoderConfig{.mode = GuidanceMode::kFull});
  util::Rng rng(33);
  for (int i = 0; i < 10; ++i) {
    const DecodeResult r = dec.generate(rng);
    EXPECT_FALSE(r.dead_end);
    EXPECT_TRUE(r.ok);
  }
}

TEST(GuidedDecoder, GeneratorIsDeterministicGivenSeed) {
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().manual,
                    DecoderConfig{.mode = GuidanceMode::kFull});
  util::Rng a(12), b(12);
  EXPECT_EQ(dec.generate(a).text, dec.generate(b).text);
}

TEST(GuidedDecoder, SolverScopesAreBalancedAcrossCalls) {
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().mined,
                    DecoderConfig{.mode = GuidanceMode::kFull});
  util::Rng rng(13);
  for (int i = 0; i < 5; ++i) {
    const DecodeResult r = dec.generate(rng);
    ASSERT_TRUE(r.ok || r.infeasible_prompt);
  }
  // If scopes leaked, mined-rule compliance would silently tighten across
  // calls until everything became infeasible — five successful rows above is
  // the behavioural check; this is the structural one:
  const DecodeResult r = dec.generate(rng);
  EXPECT_TRUE(r.ok);
}

}  // namespace
}  // namespace lejit::core
