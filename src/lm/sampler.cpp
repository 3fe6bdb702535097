#include "lm/sampler.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace lejit::lm {

std::vector<double> softmax(std::span<const float> logits,
                            double temperature) {
  LEJIT_REQUIRE(!logits.empty(), "empty logits");
  std::vector<double> probs(logits.size());
  if (temperature <= 0.0) {
    // Degenerate distribution on the argmax.
    const auto it = std::max_element(logits.begin(), logits.end());
    probs[static_cast<std::size_t>(it - logits.begin())] = 1.0;
    return probs;
  }
  double max_logit = -1e30;
  for (const float l : logits)
    max_logit = std::max(max_logit, static_cast<double>(l));
  double total = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    probs[i] =
        std::exp((static_cast<double>(logits[i]) - max_logit) / temperature);
    total += probs[i];
  }
  for (double& p : probs) p /= total;
  return probs;
}

int sample_token(std::span<const float> logits, const SamplerConfig& config,
                 util::Rng& rng, std::span<const bool> mask) {
  LEJIT_REQUIRE(mask.empty() || mask.size() == logits.size(),
                "mask size must match vocabulary size");
  std::vector<double> probs = softmax(logits, config.temperature);

  if (!mask.empty()) {
    bool any = false;
    for (std::size_t i = 0; i < probs.size(); ++i) {
      if (!mask[i]) probs[i] = 0.0;
      else any = true;
    }
    LEJIT_REQUIRE(any, "mask allows no token");
  }

  if (config.top_k > 0 &&
      static_cast<std::size_t>(config.top_k) < probs.size()) {
    std::vector<std::size_t> order(probs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::nth_element(
        order.begin(),
        order.begin() + static_cast<std::ptrdiff_t>(config.top_k),
        order.end(),
        [&](std::size_t a, std::size_t b) { return probs[a] > probs[b]; });
    for (auto r = static_cast<std::size_t>(config.top_k); r < order.size();
         ++r)
      probs[order[r]] = 0.0;
  }

  double total = 0.0;
  for (const double p : probs) total += p;
  if (total <= 0.0) {
    // All mass truncated (e.g. top-k removed every allowed token): fall back
    // to the best allowed token.
    double best = -1e30;
    int best_i = 0;
    for (std::size_t i = 0; i < logits.size(); ++i) {
      if (!mask.empty() && !mask[i]) continue;
      if (logits[i] > best) {
        best = logits[i];
        best_i = static_cast<int>(i);
      }
    }
    return best_i;
  }

  if (config.temperature <= 0.0) {
    // Greedy: argmax over the (masked) distribution.
    const auto it = std::max_element(probs.begin(), probs.end());
    return static_cast<int>(it - probs.begin());
  }

  return pick_token(probs, rng.uniform());
}

int pick_token(std::span<const double> probs, double u) {
  double total = 0.0;
  for (const double p : probs) total += p;
  LEJIT_REQUIRE(total > 0.0, "masked probabilities have no mass");
  const double target = u * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    acc += probs[i];
    if (target < acc) return static_cast<int>(i);
  }
  return static_cast<int>(probs.size()) - 1;
}

int settled_pick(std::span<const double> probs,
                 std::span<const TokenState> states, double u) {
  LEJIT_REQUIRE(states.size() == probs.size(),
                "token states must match the vocabulary size");
  double legal = 0.0;
  double undecided = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    if (states[i] == TokenState::kLegal) legal += probs[i];
    if (states[i] == TokenState::kUndecided) undecided += probs[i];
  }
  LEJIT_REQUIRE(legal > 0.0, "no legal probability mass to pick from");
  if (undecided == 0.0) {
    std::vector<double> masked(probs.begin(), probs.end());
    for (std::size_t i = 0; i < masked.size(); ++i)
      if (states[i] != TokenState::kLegal) masked[i] = 0.0;
    return pick_token(masked, u);
  }
  // Legal token t is the pick for every completion S of the undecided
  // tokens when the running sum before t stays below the target u·(legal +
  // S) and the running sum through t stays above it. Both sides are linear
  // in S, so two completions bound them: S = the undecided tokens before t,
  // which raise the sum before t by more than they raise the target, and
  // S = those after t, which raise the target but not the sum through t.
  double legal_before = 0.0;
  double undecided_before = 0.0;
  for (std::size_t t = 0; t < probs.size(); ++t) {
    if (states[t] == TokenState::kUndecided) undecided_before += probs[t];
    if (states[t] != TokenState::kLegal) continue;
    // The sum before t only grows with t: once it can reach the target, no
    // later token can be the pick either.
    if (legal_before + (1.0 - u) * undecided_before + kSettleMargin >
        u * legal)
      return -1;
    const double undecided_after = undecided - undecided_before;
    if (u * (legal + undecided_after) + kSettleMargin <
        legal_before + probs[t])
      return static_cast<int>(t);
    legal_before += probs[t];
  }
  return -1;
}

}  // namespace lejit::lm
