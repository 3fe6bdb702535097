#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "lm/sampler.hpp"

namespace lejit::lm {
namespace {

TEST(Softmax, SumsToOne) {
  const std::vector<float> logits{1.0f, 2.0f, 3.0f};
  const auto p = softmax(logits, 1.0);
  double sum = 0;
  for (const double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(p[2], p[1]);
  EXPECT_GT(p[1], p[0]);
}

TEST(Softmax, TemperatureSharpens) {
  const std::vector<float> logits{1.0f, 2.0f};
  const auto cold = softmax(logits, 0.25);
  const auto hot = softmax(logits, 4.0);
  EXPECT_GT(cold[1], hot[1]);
}

TEST(Softmax, ZeroTemperatureIsArgmax) {
  const std::vector<float> logits{1.0f, 5.0f, 3.0f};
  const auto p = softmax(logits, 0.0);
  EXPECT_EQ(p[1], 1.0);
  EXPECT_EQ(p[0] + p[2], 0.0);
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  const std::vector<float> logits{1000.0f, 1001.0f};
  const auto p = softmax(logits, 1.0);
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
}

TEST(SampleToken, GreedyPicksArgmax) {
  util::Rng rng(1);
  const std::vector<float> logits{0.1f, 2.0f, -1.0f};
  EXPECT_EQ(sample_token(logits, {.temperature = 0.0}, rng), 1);
}

TEST(SampleToken, RespectsMask) {
  util::Rng rng(2);
  const std::vector<float> logits{10.0f, 0.0f, -5.0f};
  const std::vector<char> raw{0, 1, 1};
  bool mask_arr[3] = {false, true, true};
  for (int i = 0; i < 50; ++i) {
    const int t = sample_token(logits, {.temperature = 1.0}, rng,
                               std::span<const bool>(mask_arr, 3));
    EXPECT_NE(t, 0);
  }
  (void)raw;
}

TEST(SampleToken, MaskAllowingNothingThrows) {
  util::Rng rng(3);
  const std::vector<float> logits{1.0f, 2.0f};
  bool mask_arr[2] = {false, false};
  EXPECT_THROW(
      sample_token(logits, {}, rng, std::span<const bool>(mask_arr, 2)),
      util::PreconditionError);
}

TEST(SampleToken, MaskSizeMismatchThrows) {
  util::Rng rng(3);
  const std::vector<float> logits{1.0f, 2.0f};
  bool mask_arr[1] = {true};
  EXPECT_THROW(
      sample_token(logits, {}, rng, std::span<const bool>(mask_arr, 1)),
      util::PreconditionError);
}

TEST(SampleToken, TopKTruncates) {
  util::Rng rng(4);
  const std::vector<float> logits{5.0f, 4.0f, -20.0f, -20.0f};
  for (int i = 0; i < 100; ++i) {
    const int t = sample_token(logits, {.temperature = 1.0, .top_k = 2}, rng);
    EXPECT_LT(t, 2);
  }
}

TEST(SampleToken, SamplingFollowsDistribution) {
  util::Rng rng(5);
  // p(1)/p(0) = e^2 ≈ 7.39
  const std::vector<float> logits{0.0f, 2.0f};
  int count1 = 0;
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i)
    count1 += sample_token(logits, {.temperature = 1.0}, rng);
  const double frac = static_cast<double>(count1) / kN;
  EXPECT_NEAR(frac, std::exp(2.0) / (1.0 + std::exp(2.0)), 0.03);
}

TEST(SampleToken, MaskedRenormalizationPreservesRelativeOdds) {
  util::Rng rng(6);
  // Mask removes index 0; ratio between 1 and 2 must be preserved.
  const std::vector<float> logits{9.0f, 1.0f, 0.0f};
  bool mask_arr[3] = {false, true, true};
  int count1 = 0;
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    const int t = sample_token(logits, {.temperature = 1.0}, rng,
                               std::span<const bool>(mask_arr, 3));
    if (t == 1) ++count1;
  }
  const double frac = static_cast<double>(count1) / kN;
  EXPECT_NEAR(frac, std::exp(1.0) / (1.0 + std::exp(1.0)), 0.03);
}

// --- the lazy pick --------------------------------------------------------

TEST(LazyPick, SampleTokenPicksThroughTheSharedPick) {
  // sample_token's inverse-CDF step is pick_token over the masked
  // probabilities, fed the draw sample_token takes.
  util::Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> logits(7);
    for (float& l : logits) l = static_cast<float>(rng.uniform(-4.0, 4.0));
    bool mask_arr[7];
    bool any = false;
    for (bool& m : mask_arr) any |= (m = rng.bernoulli(0.6));
    if (!any) mask_arr[3] = true;
    const std::span<const bool> mask(mask_arr, 7);
    util::Rng a(static_cast<std::uint64_t>(trial));
    util::Rng b(static_cast<std::uint64_t>(trial));
    std::vector<double> probs = softmax(logits, 1.0);
    for (std::size_t i = 0; i < probs.size(); ++i)
      if (!mask[i]) probs[i] = 0.0;
    EXPECT_EQ(sample_token(logits, {}, a, mask), pick_token(probs, b.uniform()))
        << "trial " << trial;
  }
}

// Random probabilities over `n` tokens: logits drawn from a handful of
// values (so ties are common), optionally with every `legal` token pushed
// far down so the known-legal mass is near zero.
std::vector<double> random_probs(util::Rng& rng, std::size_t n,
                                 bool tiny_legal,
                                 std::span<const TokenState> states) {
  std::vector<float> logits(n);
  for (std::size_t i = 0; i < n; ++i) {
    logits[i] = static_cast<float>(rng.uniform_int(-3, 3));
    if (tiny_legal && states[i] == TokenState::kLegal) logits[i] -= 30.0f;
  }
  return softmax(logits, 1.0);
}

TEST(LazyPick, SettledTokenIsPickedUnderEveryCompletion) {
  // Whenever settled_pick names a token, each of the 2^n ways the n
  // undecided tokens can turn out must pick that token through pick_token.
  util::Rng rng(2024);
  int named = 0;
  int declined = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 19));
    std::vector<TokenState> states(n, TokenState::kIllegal);
    std::vector<std::size_t> undecided;
    for (std::size_t i = 0; i < n; ++i) {
      const auto r = rng.uniform_int(0, 2);
      if (r == 0) continue;
      if (r == 2 && undecided.size() < 10) {
        states[i] = TokenState::kUndecided;
        undecided.push_back(i);
      } else {
        states[i] = TokenState::kLegal;
      }
    }
    if (std::ranges::find(states, TokenState::kLegal) == states.end())
      states[static_cast<std::size_t>(rng.uniform_int(0, 1))] =
          TokenState::kLegal;
    std::erase_if(undecided, [&](std::size_t i) {
      return states[i] != TokenState::kUndecided;
    });
    const std::vector<double> probs =
        random_probs(rng, n, trial % 5 == 0, states);
    for (const double u :
         {0.0, std::nextafter(1.0, 0.0), 0.5, rng.uniform()}) {
      const int t = settled_pick(probs, states, u);
      if (t < 0) {
        ++declined;
        continue;
      }
      ++named;
      for (std::uint32_t bits = 0; bits < (1u << undecided.size()); ++bits) {
        std::vector<double> masked(probs);
        for (std::size_t i = 0; i < n; ++i)
          if (states[i] == TokenState::kIllegal) masked[i] = 0.0;
        for (std::size_t j = 0; j < undecided.size(); ++j)
          if (((bits >> j) & 1u) == 0) masked[undecided[j]] = 0.0;
        ASSERT_EQ(pick_token(masked, u), t)
            << "trial " << trial << " u " << u << " completion " << bits;
      }
    }
  }
  // Both outcomes of the rule must be exercised for the check to mean
  // anything.
  EXPECT_GT(named, 1000);
  EXPECT_GT(declined, 1000);
}

TEST(LazyPick, DeclinesWhileAnUndecidedTokenCouldWin) {
  // Token 1 is undecided and holds most of the mass: a mid draw lands on it
  // when it is legal and on token 2 when it is not.
  const std::vector<double> probs{0.1, 0.6, 0.3};
  const std::vector<TokenState> states{
      TokenState::kLegal, TokenState::kUndecided, TokenState::kLegal};
  EXPECT_EQ(settled_pick(probs, states, 0.5), -1);
  // A low draw lands on token 0 either way.
  EXPECT_EQ(settled_pick(probs, states, 0.05), 0);
}

TEST(LazyPick, RequiresLegalMass) {
  const std::vector<double> probs{0.5, 0.5};
  const std::vector<TokenState> states{TokenState::kIllegal,
                                       TokenState::kUndecided};
  EXPECT_THROW((void)settled_pick(probs, states, 0.5),
               util::PreconditionError);
}

}  // namespace
}  // namespace lejit::lm
