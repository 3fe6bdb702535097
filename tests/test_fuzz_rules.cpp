// Fuzz-style end-to-end property: for RANDOM rule sets written in the rule
// language, LeJIT must either detect unsatisfiability up front or generate
// rows that satisfy every rule. This exercises parser → solver → transition
// system → decoder against rule shapes no human picked.
#include <gtest/gtest.h>

#include <sstream>

#include "core/decoder.hpp"
#include "lint/lint.hpp"
#include "lm/ngram.hpp"
#include "plan/plan.hpp"
#include "rules/checker.hpp"
#include "rules/parser.hpp"
#include "telemetry/generator.hpp"

namespace lejit {
namespace {

using telemetry::Window;

struct Env {
  telemetry::Dataset dataset;
  telemetry::RowLayout layout;
  lm::CharTokenizer tokenizer{telemetry::row_alphabet()};
  std::unique_ptr<lm::NgramModel> model;
};

const Env& env() {
  static const Env e = [] {
    Env out;
    out.dataset = telemetry::generate_dataset(telemetry::GeneratorConfig{
        .num_racks = 8, .windows_per_rack = 30, .seed = 123});
    out.layout = telemetry::telemetry_row_layout(out.dataset.limits);
    out.model = std::make_unique<lm::NgramModel>(
        out.tokenizer.vocab_size(), lm::NgramConfig{.order = 6});
    for (const Window& w : telemetry::all_windows(out.dataset))
      out.model->observe(out.tokenizer.encode(telemetry::window_to_row(w)));
    return out;
  }();
  return e;
}

// Emit a random rule line in the parser's syntax.
std::string random_rule_line(util::Rng& rng,
                             const telemetry::RowLayout& layout) {
  const auto field = [&]() {
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, layout.num_fields() - 1));
    return layout.fields[idx].name;
  };
  const auto operand = [&]() -> std::string {
    switch (rng.uniform_int(0, 3)) {
      case 0: return field();
      case 1: return std::to_string(rng.uniform_int(0, 200));
      case 2:
        return std::to_string(rng.uniform_int(1, 3)) + "*" + field() +
               (rng.bernoulli(0.5)
                    ? " + " + std::to_string(rng.uniform_int(0, 100))
                    : "");
      default: {
        const char* aggs[] = {"max(I)", "min(I)", "sum(I)"};
        return aggs[rng.uniform_int(0, 2)];
      }
    }
  };
  const char* cmps[] = {"<=", ">=", "<", ">", "==", "!="};
  const auto clause = [&]() {
    std::string lhs = operand();
    std::string rhs = operand();
    // The parser rejects aggregates on both sides; retry the rhs.
    const auto is_agg = [](const std::string& s) {
      return s.starts_with("max(") || s.starts_with("min(");
    };
    while (is_agg(lhs) && is_agg(rhs)) rhs = operand();
    return lhs + " " + cmps[rng.uniform_int(0, 5)] + " " + rhs;
  };
  std::string line = clause();
  if (rng.bernoulli(0.3)) line += " => " + clause();
  return line;
}

class RandomRuleSets : public ::testing::TestWithParam<int> {};

TEST_P(RandomRuleSets, LeJitCompliesOrReportsInfeasibility) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 17);
  int generated = 0, infeasible = 0;

  for (int trial = 0; trial < 8; ++trial) {
    std::ostringstream rule_text;
    const int nrules = static_cast<int>(rng.uniform_int(1, 5));
    for (int i = 0; i < nrules; ++i)
      rule_text << random_rule_line(rng, env().layout) << "\n";

    const auto parsed = rules::parse_rules(rule_text.str(), env().layout);
    ASSERT_TRUE(parsed.ok()) << rule_text.str();

    // Random rule sets are frequently unsatisfiable; detect that first the
    // same way the decoder would.
    smt::Solver solver;
    rules::declare_fields(solver, env().layout);
    rules::assert_rules(solver, parsed.rules);
    const auto sat = solver.check();

    // The static analyzer must survive every rule shape the grammar can emit
    // and agree with the direct solver verdict (unless either ran out of
    // budget — kUnknown makes no claim).
    const lint::Report report = lint::analyze(parsed.rules, env().layout);
    if (sat != smt::CheckResult::kUnknown &&
        report.satisfiable != smt::CheckResult::kUnknown) {
      EXPECT_EQ(report.satisfiable, sat)
          << "lint and solver disagree on:\n"
          << rule_text.str() << lint::to_text(report);
    }
    if (report.satisfiable == smt::CheckResult::kUnsat) {
      EXPECT_FALSE(report.core.empty());
    }

    if (sat != smt::CheckResult::kSat) {
      ++infeasible;
      continue;
    }

    core::GuidedDecoder dec(
        *env().model, env().tokenizer, env().layout, parsed.rules,
        core::DecoderConfig{.mode = core::GuidanceMode::kFull});
    const std::uint64_t decode_seed = rng.next_u64();
    util::Rng decode_rng(decode_seed);
    const auto r = dec.generate(decode_rng);
    ASSERT_TRUE(r.ok) << "rules:\n" << rule_text.str() << "row: " << r.text;
    EXPECT_TRUE(rules::violated_rules(parsed.rules, *r.window).empty())
        << "rules:\n" << rule_text.str() << "row: " << r.text;
    ++generated;

    // A compiled decode plan must not change a single character, whatever
    // rule shape the grammar produced — and neither may an artificially
    // coarsened partition (merged clusters assert more rules per sliced
    // query, never different verdicts).
    core::DecoderConfig planned_cfg{.mode = core::GuidanceMode::kFull};
    planned_cfg.plan = plan::compile(parsed.rules, env().layout);
    core::GuidedDecoder planned(*env().model, env().tokenizer, env().layout,
                                parsed.rules, std::move(planned_cfg));
    util::Rng planned_rng(decode_seed);
    const auto rp = planned.generate(planned_rng);
    EXPECT_EQ(rp.text, r.text) << "plan diverged on:\n" << rule_text.str();

    if (planned.decode_plan()->clusters.size() >= 2) {
      plan::DecodePlan merged = *planned.decode_plan();
      const auto a = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<int>(merged.clusters.size()) - 1));
      auto b = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<int>(merged.clusters.size()) - 1));
      if (a == b) b = (b + 1) % merged.clusters.size();
      merged = plan::merge_clusters(std::move(merged), a, b);
      core::DecoderConfig merged_cfg{.mode = core::GuidanceMode::kFull};
      merged_cfg.plan = std::move(merged);
      core::GuidedDecoder coarse(*env().model, env().tokenizer, env().layout,
                                 parsed.rules, std::move(merged_cfg));
      util::Rng coarse_rng(decode_seed);
      const auto rm = coarse.generate(coarse_rng);
      EXPECT_EQ(rm.text, r.text)
          << "merged clusters diverged on:\n" << rule_text.str();
    }
  }
  // Both outcomes should occur across the suite; per-seed we only require
  // progress (at least one decided trial).
  EXPECT_GT(generated + infeasible, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRuleSets, ::testing::Range(1, 11));

}  // namespace
}  // namespace lejit
