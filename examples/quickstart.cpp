// Quickstart: the paper's Fig. 1 worked example, end to end.
//
// A datacenter operator wants millisecond-level ingress readings I0..I4 but
// only has coarse counters. Three rules constrain any valid answer:
//   R1: 0 <= I_t <= BW                 (per-slot bandwidth bound)
//   R2: sum_t I_t == TotalIngress      (exact accounting)
//   R3: Congestion > 0 => max_t I_t >= BW/2   (ECN marks imply a burst)
//
// Part 1 queries the SMT layer directly to show why step-by-step guidance is
// subtle: after I0..I2 = 20,15,25 the feasible set for I3 is {0..10} ∪
// {30..40} — non-convex, so naive interval clipping is not enough.
// Part 2 runs the full LeJIT pipeline: a char-level LM trained on synthetic
// telemetry, guided token by token, producing a rule-compliant window.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>
#include <iostream>

#include "core/decoder.hpp"
#include "lm/ngram.hpp"
#include "rules/checker.hpp"
#include "rules/miner.hpp"
#include "smt/solver.hpp"
#include "telemetry/generator.hpp"
#include "telemetry/text.hpp"

using namespace lejit;

namespace {

void part1_solver_view() {
  std::cout << "--- Part 1: the solver's view of Fig. 1 ---\n";
  constexpr smt::Int kBw = 60, kTotal = 100, kCongestion = 8, kWindow = 5;

  smt::Solver solver;
  std::vector<smt::VarId> ingress;
  for (int t = 0; t < kWindow; ++t)
    ingress.push_back(solver.add_var("I" + std::to_string(t), 0, kBw));  // R1

  smt::LinExpr sum;
  for (const auto v : ingress) sum += smt::LinExpr(v);
  solver.add(smt::eq(sum, smt::LinExpr(kTotal)));  // R2
  solver.add(smt::implies(smt::gt(smt::LinExpr(kCongestion), smt::LinExpr(0)),
                          smt::max_ge(ingress, smt::LinExpr(kBw / 2))));  // R3

  // The LM has already emitted I0=20, I1=15, I2=25 (all valid so far).
  solver.push();
  solver.add(smt::eq(smt::LinExpr(ingress[0]), smt::LinExpr(20)));
  solver.add(smt::eq(smt::LinExpr(ingress[1]), smt::LinExpr(15)));
  solver.add(smt::eq(smt::LinExpr(ingress[2]), smt::LinExpr(25)));

  const smt::Interval hull = solver.feasible_interval(ingress[3]);
  std::cout << "feasible hull for I3: [" << hull.lo << ", " << hull.hi << "]\n";
  std::cout << "but the set has a hole — per-value feasibility:\n  ";
  for (const smt::Int v : {0, 5, 10, 11, 20, 29, 30, 39, 40, 41}) {
    const smt::Formula pin = smt::eq(smt::LinExpr(ingress[3]), smt::LinExpr(v));
    const bool ok =
        solver.check_assuming(std::span(&pin, 1)) == smt::CheckResult::kSat;
    std::cout << "I3=" << v << (ok ? " ok" : " X") << "  ";
  }
  std::cout << "\n";

  // The paper's choice I3 = 39 forces the final value (Fig. 1b, step 5).
  solver.add(smt::eq(smt::LinExpr(ingress[3]), smt::LinExpr(39)));
  const smt::Interval last = solver.feasible_interval(ingress[4]);
  std::cout << "after I3=39, I4 is forced: [" << last.lo << ", " << last.hi
            << "]\n\n";
  solver.pop();
}

std::string bench_fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

void part2_lejit_pipeline() {
  std::cout << "--- Part 2: LeJIT end to end ---\n";
  // Synthetic fleet (the repo's substitute for the Meta rack dataset).
  const auto dataset = telemetry::generate_dataset(
      telemetry::GeneratorConfig{.num_racks = 12, .windows_per_rack = 60});
  const auto split = telemetry::split_by_rack(dataset, 2, 1);
  const auto layout = telemetry::telemetry_row_layout(dataset.limits);
  const auto train = telemetry::all_windows(split.train);

  // A char-level LM trained on the training racks' row text.
  lm::CharTokenizer tokenizer(telemetry::row_alphabet());
  lm::NgramModel model(tokenizer.vocab_size(), lm::NgramConfig{.order = 6});
  for (const auto& w : train)
    model.observe(tokenizer.encode(telemetry::window_to_row(w)));

  // Mine rules from the training racks (NetNomos-style).
  const auto mined =
      rules::mine_rules(train, layout, dataset.limits).rules;
  std::cout << "mined " << mined.size() << " rules from "
            << train.size() << " training windows\n";

  // LeJIT: the solver joins the LM's decoding loop.
  core::GuidedDecoder lejit(
      model, tokenizer, layout, mined,
      core::DecoderConfig{.mode = core::GuidanceMode::kFull});
  util::Rng rng(7);
  const telemetry::Window& truth = split.test.racks[0].windows[3];
  const auto result = lejit.generate(rng, telemetry::imputation_prompt(truth));

  std::cout << "prompt      : " << telemetry::imputation_prompt(truth) << "\n";
  std::cout << "LeJIT output: " << result.text << "\n";
  std::cout << "ground truth: ";
  for (const auto v : truth.fine) std::cout << v << " ";
  std::cout << "\nviolations  : "
            << rules::violated_rules(mined, *result.window).size() << " of "
            << mined.size() << " rules\n";
  std::cout << "solver calls: " << result.stats.solver_checks
            << ", LM calls: " << result.stats.lm_calls
            << ", mask removed at least "
            << bench_fmt(result.stats.mean_removed_mass())
            << " of probability mass per step\n";
}

}  // namespace

int main() {
  part1_solver_view();
  part2_lejit_pipeline();
  return 0;
}
