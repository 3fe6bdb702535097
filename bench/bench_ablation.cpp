// Ablations on LeJIT's design choices (DESIGN.md §6, paper §5 agenda):
//   A. guidance mode — vanilla vs grammar-only vs full solver look-ahead
//      (grammar-only is §2.2's "constrained decoding" strawman: it cannot do
//      arithmetic, so sum/implication rules still break);
//   B. rule-set size vs decode cost — how solver-in-the-loop overhead scales
//      with the number of enforced rules;
//   C. forced-literal skipping — LM calls saved by not sampling characters
//      the syntax already determines;
//   D. minimal invasiveness — how much probability mass the mask removes;
//   E. just-in-time mask resolution — solver checks and wall time saved by
//      deciding only the candidates that can change the sampled token.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "telemetry/text.hpp"
#include "util/timer.hpp"

namespace {

using namespace lejit;
using bench::BenchEnv;
using telemetry::Window;

constexpr int kSamples = 60;

}  // namespace

int main(int argc, char** argv) {
  lejit::bench::JsonReport report("ablation", &argc, argv);
  const BenchEnv env = bench::make_env();
  std::vector<Window> prompts;
  for (const Window& w : env.test) {
    if (rules::violated_rules(env.mined, w).empty()) prompts.push_back(w);
    if (static_cast<int>(prompts.size()) == kSamples) break;
  }

  // --- A: guidance mode ------------------------------------------------------
  {
    bench::Table table(
        "Ablation A — guidance mode (imputation, mined rules as the check)",
        {"mode", "rows produced", "violation rate", "dead ends", "ms/sample",
         "solver checks/sample"});
    struct ModeCase {
      std::string name;
      core::GuidanceMode mode;
      const rules::RuleSet* rules;
    };
    const std::vector<ModeCase> cases{
        {"none (vanilla)", core::GuidanceMode::kNone, nullptr},
        {"grammar only", core::GuidanceMode::kSyntax, nullptr},
        {"hull only (no look-ahead)", core::GuidanceMode::kHull, &env.mined},
        {"full (LeJIT)", core::GuidanceMode::kFull, &env.mined},
    };
    for (const auto& c : cases) {
      core::GuidedDecoder dec(*env.model, env.tokenizer, env.layout,
                              c.rules ? *c.rules : rules::RuleSet{},
                              core::DecoderConfig{.mode = c.mode});
      util::Rng rng(1);
      std::vector<Window> outputs;
      std::int64_t checks = 0;
      int dead_ends = 0;
      util::Timer timer;
      for (const Window& w : prompts) {
        const auto r = dec.generate(rng, telemetry::imputation_prompt(w));
        checks += r.stats.solver_checks;
        if (r.dead_end) ++dead_ends;
        if (r.ok) outputs.push_back(*r.window);
      }
      const double ms =
          timer.elapsed_ms() / static_cast<double>(prompts.size());
      const auto stats = rules::check_violations(env.mined, outputs);
      table.add_row({c.name,
                     std::to_string(outputs.size()) + "/" +
                         std::to_string(prompts.size()),
                     outputs.empty() ? "n/a"
                                     : bench::fmt_pct(stats.window_rate()),
                     std::to_string(dead_ends), bench::fmt(ms, 3),
                     bench::fmt(static_cast<double>(checks) /
                                    static_cast<double>(prompts.size()),
                                1)});
    }
    table.print();
    std::cout << "(unguided rows often fail to parse at all; grammar-only "
                 "cannot express arithmetic — its violations come from "
                 "sum/implication rules, the paper's §2.2 argument; hull-only "
                 "is blind to holes in the feasible set and dead-ends "
                 "instead)\n";
  }

  // --- B: rule-set size scaling ----------------------------------------------
  {
    bench::Table table("Ablation B — decode cost vs enforced-rule count",
                       {"rule families", "#rules", "ms/sample",
                        "checks/sample", "violation rate"});
    struct FamilyCase {
      std::string name;
      rules::MinerConfig config;
    };
    std::vector<FamilyCase> cases;
    {
      rules::MinerConfig c;
      c.mine_sum = c.mine_burst = c.mine_conditionals = c.mine_pairwise = false;
      cases.push_back({"bounds", c});
    }
    {
      rules::MinerConfig c;
      c.mine_conditionals = c.mine_pairwise = false;
      cases.push_back({"+sum+burst", c});
    }
    {
      rules::MinerConfig c;
      c.mine_conditionals = false;
      cases.push_back({"+pairwise", c});
    }
    cases.push_back({"all (full mined)", rules::MinerConfig{}});

    for (const auto& c : cases) {
      const rules::RuleSet set =
          rules::mine_rules(env.train, env.layout, env.dataset.limits, c.config)
              .rules;
      core::GuidedDecoder dec(
          *env.model, env.tokenizer, env.layout, set,
          core::DecoderConfig{.mode = core::GuidanceMode::kFull});
      util::Rng rng(2);
      std::vector<Window> outputs;
      std::int64_t checks = 0;
      util::Timer timer;
      for (const Window& w : prompts) {
        const auto r = dec.generate(rng, telemetry::imputation_prompt(w));
        checks += r.stats.solver_checks;
        if (r.ok) outputs.push_back(*r.window);
      }
      const double ms =
          timer.elapsed_ms() / static_cast<double>(prompts.size());
      const auto stats = rules::check_violations(env.mined, outputs);
      table.add_row({c.name, std::to_string(set.size()), bench::fmt(ms, 3),
                     bench::fmt(static_cast<double>(checks) /
                                    static_cast<double>(prompts.size()),
                                1),
                     bench::fmt_pct(stats.window_rate())});
    }
    table.print();
  }

  // --- D: minimal invasiveness (paper §3) ------------------------------------
  // How much does the solver actually override the LM? Mean probability mass
  // removed per masked step and the fraction of steps where the LM's argmax
  // was pruned, for both tasks. Masks resolve eagerly here: a lazy step
  // reports only a lower bound on the mass it removed.
  struct TaskCase {
    std::string name;
    const rules::RuleSet* rules;
    bool imputation;
  };
  const std::vector<TaskCase> tasks{
      {"imputation (mined)", &env.mined, true},
      {"synthesis (coarse)", &env.mined_coarse, false}};
  {
    bench::Table table(
        "Ablation D — minimal invasiveness of LeJIT's guidance",
        {"task", "masked steps/sample", "mean removed mass",
         "argmax pruned"});
    for (const TaskCase& t : tasks) {
      core::DecoderConfig config{.mode = core::GuidanceMode::kFull};
      config.lazy_mask = false;
      core::GuidedDecoder dec(*env.model, env.tokenizer, env.layout, *t.rules,
                              config);
      util::Rng rng(4);
      std::int64_t masked = 0, interventions = 0;
      double removed = 0.0;
      int samples = 0;
      for (const Window& w : prompts) {
        const auto r = dec.generate(
            rng, t.imputation ? telemetry::imputation_prompt(w) : "");
        if (!r.ok) continue;
        ++samples;
        masked += r.stats.masked_steps;
        interventions += r.stats.interventions;
        removed += r.stats.removed_mass;
      }
      table.add_row(
          {t.name,
           bench::fmt(static_cast<double>(masked) / samples, 1),
           bench::fmt(removed / static_cast<double>(masked), 3),
           bench::fmt_pct(static_cast<double>(interventions) /
                          static_cast<double>(masked))});
    }
    table.print();
    std::cout << "(low removed mass = the solver mostly lets the LM decide, "
                 "the paper's 'a little guidance goes a long way')\n";
  }

  // --- E: just-in-time mask resolution (DESIGN.md §9.4) ---------------------
  // The price of resolving every candidate before the LM call: the same rows
  // decoded with masks resolved eagerly and lazily. Both decoders stay warm
  // across kRounds alternating passes over the prompts, and each leg's time
  // is the sum over its passes.
  {
    constexpr int kRounds = 5;
    bench::Table table(
        "Ablation E — just-in-time mask resolution (kFull, same rows)",
        {"task", "masks", "solver checks/sample", "ms/sample",
         "undecided/sample", "rows"});
    for (const TaskCase& t : tasks) {
      struct Leg {
        std::unique_ptr<core::GuidedDecoder> dec;
        std::vector<std::string> rows;
        std::int64_t checks = 0;
        std::int64_t unresolved = 0;
        double ms = 0.0;
      };
      Leg legs[2];  // eager, lazy
      for (int lazy = 0; lazy < 2; ++lazy) {
        core::DecoderConfig config{.mode = core::GuidanceMode::kFull};
        config.lazy_mask = lazy == 1;
        legs[lazy].dec = std::make_unique<core::GuidedDecoder>(
            *env.model, env.tokenizer, env.layout, *t.rules, config);
      }
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < 2; ++i) {
          Leg& leg = legs[(round + i) % 2];
          util::Rng rng(5);
          util::Timer timer;
          for (const Window& w : prompts) {
            const auto r = leg.dec->generate(
                rng, t.imputation ? telemetry::imputation_prompt(w) : "");
            if (round == 0) leg.rows.push_back(r.text);
            leg.checks += r.stats.solver_checks;
            leg.unresolved += r.stats.unresolved_candidates;
          }
          leg.ms += timer.elapsed_ms();
        }
      }
      const double n = static_cast<double>(prompts.size()) * kRounds;
      for (int lazy = 0; lazy < 2; ++lazy) {
        const Leg& leg = legs[lazy];
        table.add_row(
            {t.name, lazy == 1 ? "lazy" : "eager",
             bench::fmt(static_cast<double>(leg.checks) / n, 1),
             bench::fmt(leg.ms / n, 3),
             bench::fmt(static_cast<double>(leg.unresolved) / n, 1),
             lazy == 0                    ? "reference"
             : leg.rows == legs[0].rows ? "identical"
                                          : "DIFFERENT"});
      }
    }
    table.print();
  }

  // --- C: forced-literal skipping --------------------------------------------
  {
    bench::Table table("Ablation C — skipping LM calls on forced syntax",
                       {"skip_forced_literals", "LM calls/sample",
                        "ms/sample"});
    for (const bool skip : {true, false}) {
      core::GuidedDecoder dec(
          *env.model, env.tokenizer, env.layout, env.manual,
          core::DecoderConfig{.mode = core::GuidanceMode::kFull,
                              .skip_forced_literals = skip});
      util::Rng rng(3);
      std::int64_t lm_calls = 0;
      util::Timer timer;
      for (const Window& w : prompts) {
        const auto r = dec.generate(rng, telemetry::imputation_prompt(w));
        lm_calls += r.stats.lm_calls;
      }
      table.add_row({skip ? "on" : "off",
                     bench::fmt(static_cast<double>(lm_calls) /
                                    static_cast<double>(prompts.size()),
                                1),
                     bench::fmt(timer.elapsed_ms() /
                                    static_cast<double>(prompts.size()),
                                3)});
    }
    table.print();
  }
  report.add_env(env.config);
  report.write();
  return 0;
}
