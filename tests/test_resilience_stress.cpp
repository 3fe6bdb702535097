// Fault-injection stress tests (ctest label `stress`; also run under
// ASan+UBSan by tools/run_stress_sanitized.sh).
//
// The headline scenario is the resilience acceptance run: with injection
// forcing a double-digit percentage of solver checks to kUnknown and a small
// share of LM forwards throwing, a 32-row serve run must complete with every
// non-faulted row valid and every faulted row degraded in place, dead-end
// recovery must save a kHull row, and the obs counters must agree with the
// injector's own ground-truth counts.
//
// Determinism note (DESIGN.md §8.5): probabilistic decisions are keyed by a
// per-site call counter, so with several sessions *which* call is faulted is
// schedule-dependent while rates and totals are not. Tests that pin exact
// per-row outcomes therefore run on a one-session server (fully
// deterministic); the multithreaded storm asserts aggregates only.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/decoder.hpp"
#include "fault/fault.hpp"
#include "lm/ngram.hpp"
#include "lm/transformer.hpp"
#include "obs/metrics.hpp"
#include "rules/checker.hpp"
#include "rules/miner.hpp"
#include "serve/serve.hpp"
#include "telemetry/generator.hpp"

namespace lejit::core {
namespace {

using telemetry::Window;

struct Env {
  telemetry::Dataset dataset;
  telemetry::RowLayout layout;
  std::vector<Window> windows;
  lm::CharTokenizer tokenizer{telemetry::row_alphabet()};
  std::unique_ptr<lm::Transformer> model;
  rules::RuleSet manual;
};

// A small *untrained* transformer: kFull guided decoding emits compliant
// rows regardless of LM quality, and these tests are about surviving
// faults, not text quality.
const Env& env() {
  static const Env e = [] {
    Env out;
    out.dataset = telemetry::generate_dataset(telemetry::GeneratorConfig{
        .num_racks = 8, .windows_per_rack = 30, .seed = 5});
    out.layout = telemetry::telemetry_row_layout(out.dataset.limits);
    out.windows = telemetry::all_windows(out.dataset);
    util::Rng rng(12);
    out.model = std::make_unique<lm::Transformer>(
        lm::TransformerConfig{.vocab_size = out.tokenizer.vocab_size(),
                              .d_model = 16,
                              .n_layers = 2,
                              .n_heads = 2,
                              .d_ff = 24,
                              .max_seq = 48},
        rng);
    out.manual = rules::manual_rules(out.layout, out.dataset.limits);
    return out;
  }();
  return e;
}

// Resilient decoding: escalate unknowns, recover dead ends.
DecoderConfig resilient_config() {
  DecoderConfig config{.mode = GuidanceMode::kFull};
  config.resilience.on_unknown = UnknownPolicy::kEscalate;
  config.resilience.escalation_factor = 8;
  config.resilience.max_escalations = 4;
  config.resilience.retry_budget = 2;
  return config;
}

serve::Server resilient_server(int sessions, std::uint64_t seed) {
  return serve::Server(
      *env().model, env().tokenizer, env().layout, env().manual,
      resilient_config(),
      serve::ServeConfig{.workers = 1, .batch = sessions, .seed = seed});
}

std::int64_t counter_value(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

// A row whose decode threw is degraded in place, and its detail names it.
void expect_degraded(const DecodeResult& r, std::size_t row) {
  EXPECT_FALSE(r.ok) << "row " << row;
  EXPECT_EQ(r.fail_detail.rfind(
                "serve row " + std::to_string(row) + " degraded: ", 0),
            0u)
      << r.fail_detail;
}

TEST(ResilienceStress, AcceptanceBatchSurvivesUnknownStormAndRowFault) {
  obs::set_metrics_enabled(true);
  const std::int64_t unknowns_before = counter_value("fault.injected_unknowns");
  const std::int64_t throws_before = counter_value("fault.injected_throws");
  const std::int64_t smt_unknowns_before = counter_value("smt.unknowns");

  fault::Plan plan;
  plan.seed = 11;
  plan.site(fault::Site::kSolverCheck).p_unknown = 0.15;  // ≥10% of checks
  plan.site(fault::Site::kLmForward).p_throw = 0.02;      // row faults

  std::vector<std::string> prompts;
  for (std::size_t i = 0; i < 32; ++i)
    prompts.push_back(telemetry::imputation_prompt(env().windows[i]));
  // One session decodes the rows in order: exact determinism.
  serve::Server server = resilient_server(1, 13);
  fault::Counts injected;
  std::vector<DecodeResult> results;
  {
    const fault::ScopedPlan scoped{plan};
    results = server.run(prompts);
    injected = fault::Injector::instance().counts();
  }

  // The run completed; each injected throw degraded exactly the row it hit,
  // and every other row completed and violates nothing.
  ASSERT_EQ(results.size(), 32u);
  std::size_t degraded = 0;
  std::int64_t unknown_checks = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const DecodeResult& r = results[i];
    if (r.reason == FailReason::kFault) {
      ++degraded;
      expect_degraded(r, i);
      continue;
    }
    ASSERT_TRUE(r.ok) << "row " << i << ": " << fail_reason_name(r.reason)
                      << " — " << r.fail_detail;
    EXPECT_TRUE(rules::violated_rules(env().manual, *r.window).empty())
        << "row " << i << ": " << r.text;
    unknown_checks += r.stats.unknown_checks;
  }
  EXPECT_GE(degraded, 1u);
  EXPECT_LE(degraded, 8u) << "the storm must not drown the run";
  EXPECT_EQ(degraded, static_cast<std::size_t>(injected.throws));
  EXPECT_EQ(server.stats().degraded_rows, degraded);

  // The storm actually happened: a sizeable fraction of checks was forced
  // inconclusive, and the decoders saw (some of) them.
  EXPECT_GT(injected.calls, 500);
  EXPECT_GE(injected.unknowns * 10, injected.calls)
      << "plan promises ≥10% forced unknowns";
  EXPECT_GT(unknown_checks, 0);

  // Observability agrees with the injector's ground truth.
  EXPECT_EQ(counter_value("fault.injected_unknowns") - unknowns_before,
            injected.unknowns);
  EXPECT_EQ(counter_value("fault.injected_throws") - throws_before,
            injected.throws);
  // Injected unknowns surface through the normal smt.unknowns counter too
  // (organic budget exhaustion could add more, never less).
  EXPECT_GE(counter_value("smt.unknowns") - smt_unknowns_before,
            injected.unknowns);
}

TEST(ResilienceStress, HullRowRecoversFromADeadEndUnderInjection) {
  obs::set_metrics_enabled(true);
  // Engineered hole: I0 feasible in {0..10} ∪ {30..40}, LM memorized 15.
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
  Window row = env().windows.front();
  row.fine.assign(row.fine.size(), 15);
  row.total = 15 * static_cast<smt::Int>(row.fine.size());
  row.ecn = 0;
  row.rtx = 0;
  row.egress = 10;
  lm::NgramModel memorizer(env().tokenizer.vocab_size(),
                           lm::NgramConfig{.order = 8});
  for (int i = 0; i < 50; ++i)
    memorizer.observe(env().tokenizer.encode(telemetry::window_to_row(row)));

  // A mild unknown storm on top — the kEscalate policy must absorb it.
  fault::Plan plan;
  plan.seed = 3;
  plan.site(fault::Site::kSolverCheck).p_unknown = 0.1;
  const fault::ScopedPlan scoped{plan};

  DecoderConfig config{.mode = GuidanceMode::kHull,
                       .sampler = {.temperature = 0.0}};
  config.resilience.retry_budget = 3;
  config.resilience.max_escalations = 6;
  GuidedDecoder dec(memorizer, env().tokenizer, env().layout, holey, config);
  util::Rng rng(32);
  const DecodeResult r = dec.generate(rng, telemetry::imputation_prompt(row));
  ASSERT_TRUE(r.ok) << fail_reason_name(r.reason) << " — " << r.fail_detail;
  EXPECT_GE(r.recoveries, 1) << "the hole must have forced a recovery";
  EXPECT_TRUE(rules::violated_rules(holey, *r.window).empty()) << r.text;
}

TEST(ResilienceStress, MultithreadedStormAssertsAggregatesOnly) {
  obs::set_metrics_enabled(true);
  const std::int64_t unknowns_before = counter_value("fault.injected_unknowns");
  const std::int64_t throws_before = counter_value("fault.injected_throws");

  fault::Plan plan;
  plan.seed = 17;
  plan.site(fault::Site::kSolverCheck).p_unknown = 0.12;
  plan.site(fault::Site::kLmForward).p_throw = 0.02;  // real row faults

  serve::Server server = resilient_server(4, 23);
  const std::vector<std::string> prompts(32);  // synthesis
  fault::Counts injected;
  std::vector<DecodeResult> results;
  {
    const fault::ScopedPlan scoped{plan};
    results = server.run(prompts);
    injected = fault::Injector::instance().counts();
  }

  ASSERT_EQ(results.size(), 32u);
  // LM throws degrade a few rows, but the run itself never dies and the
  // ledger stays consistent.
  std::size_t ok = 0, faulted = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const DecodeResult& r = results[i];
    if (r.ok) {
      ++ok;
      EXPECT_TRUE(rules::violated_rules(env().manual, *r.window).empty())
          << r.text;
    } else {
      // Which rows fault is schedule-dependent; that they carry a reason
      // and never a violating window is not.
      EXPECT_NE(r.reason, FailReason::kNone) << r.fail_detail;
      if (r.reason == FailReason::kFault) {
        ++faulted;
        expect_degraded(r, i);
      }
    }
  }
  EXPECT_GE(faulted, 1u);
  EXPECT_EQ(faulted, static_cast<std::size_t>(injected.throws));
  EXPECT_EQ(server.stats().degraded_rows, faulted);
  EXPECT_GT(ok, 16u) << "the storm must not drown the majority of rows";

  // Counter/ground-truth agreement holds regardless of schedule.
  EXPECT_EQ(counter_value("fault.injected_unknowns") - unknowns_before,
            injected.unknowns);
  EXPECT_EQ(counter_value("fault.injected_throws") - throws_before,
            injected.throws);
  EXPECT_GT(injected.unknowns, 0);
}

}  // namespace
}  // namespace lejit::core
