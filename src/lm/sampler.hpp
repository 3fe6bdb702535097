// Sampling from next-token distributions, with and without a validity mask.
//
// The masked path is the mechanism LeJIT uses to enforce rules: logits of
// invalid tokens are removed and the remaining distribution is renormalized,
// which preserves the LM's relative preferences among valid tokens — the
// "statistical fidelity" property the paper argues for.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace lejit::lm {

struct SamplerConfig {
  double temperature = 1.0;  // <= 0 means greedy argmax
  int top_k = 0;             // 0 disables top-k truncation
};

// Softmax with temperature; numerically stable. Returns probabilities.
std::vector<double> softmax(std::span<const float> logits, double temperature);

// Sample a token id from `logits`. `mask`, when non-empty, marks allowed
// token ids (mask[i] == true ⇔ allowed) and must contain at least one
// allowed token.
int sample_token(std::span<const float> logits, const SamplerConfig& config,
                 util::Rng& rng, std::span<const bool> mask = {});

// The inverse-CDF pick sample_token makes for the uniform draw `u` in [0, 1):
// the first token whose running sum of `probs`, in token-index order,
// exceeds u · Σ probs. `probs` holds the masked probabilities (0 for a
// disallowed token) and must have a positive sum.
int pick_token(std::span<const double> probs, double u);

// What a lazily resolved mask knows about one token.
enum class TokenState : std::uint8_t { kIllegal, kLegal, kUndecided };

// The stop rule of lazy mask resolution: the token pick_token returns for
// draw `u` whatever the undecided tokens turn out to be — each either keeps
// its probability (legal) or drops to 0 (illegal) — or -1 when two such
// completions could pick differently. The rule bounds the legal mass, the
// undecided mass and the running sums in token-index order with an absolute
// margin of kSettleMargin, far above the rounding of any of those sums, and
// answers -1 inside it. With no undecided mass left it is pick_token itself.
// `probs` are the unmasked probabilities; the legal ones must have a
// positive sum.
int settled_pick(std::span<const double> probs,
                 std::span<const TokenState> states, double u);
inline constexpr double kSettleMargin = 1e-9;

}  // namespace lejit::lm
