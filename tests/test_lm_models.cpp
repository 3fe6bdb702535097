#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <utility>

#include "lm/ngram.hpp"
#include "lm/trainer.hpp"
#include "lm/transformer.hpp"
#include "obs/metrics.hpp"

namespace lejit::lm {
namespace {

std::vector<double> probs_of(const LanguageModel& m,
                             std::span<const int> ctx) {
  const auto logits = m.logits(ctx);
  std::vector<double> p(logits.size());
  double total = 0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    p[i] = std::exp(static_cast<double>(logits[i]));
    total += p[i];
  }
  for (double& v : p) v /= total;
  return p;
}

// --- n-gram ------------------------------------------------------------------

TEST(NgramModel, UntrainedIsUniform) {
  const NgramModel m(4);
  const auto p = probs_of(m, {});
  for (const double v : p) EXPECT_NEAR(v, 0.25, 1e-6);
}

TEST(NgramModel, LearnsDeterministicSequence) {
  NgramModel m(3, NgramConfig{.order = 3});
  const std::vector<int> row{0, 1, 2, 0, 1, 2, 0, 1, 2};
  for (int i = 0; i < 20; ++i) m.observe(row);
  const std::vector<int> ctx{0, 1};
  const auto p = probs_of(m, ctx);
  EXPECT_GT(p[2], 0.8) << "after (0,1) the next token is always 2";
}

TEST(NgramModel, BacksOffForUnseenContext) {
  NgramModel m(3, NgramConfig{.order = 3});
  // Unigram distribution heavily favors token 1.
  const std::vector<int> row{1, 1, 1, 1, 0};
  for (int i = 0; i < 10; ++i) m.observe(row);
  // Context (2,2) was never observed: backoff should still prefer 1.
  const std::vector<int> ctx{2, 2};
  const auto p = probs_of(m, ctx);
  EXPECT_GT(p[1], p[0]);
  EXPECT_GT(p[1], p[2]);
}

TEST(NgramModel, LogitsAreFiniteAndSizedToVocab) {
  NgramModel m(7);
  m.observe(std::vector<int>{0, 1, 2, 3, 4, 5, 6});
  const auto logits = m.logits(std::vector<int>{3});
  ASSERT_EQ(logits.size(), 7u);
  for (const float l : logits) EXPECT_TRUE(std::isfinite(l));
}

TEST(NgramModel, RejectsOutOfRangeToken) {
  NgramModel m(3);
  EXPECT_THROW(m.observe(std::vector<int>{0, 3}), util::PreconditionError);
}

TEST(NgramModel, TotalEventsGrow) {
  NgramModel m(3, NgramConfig{.order = 2});
  EXPECT_EQ(m.total_events(), 0);
  m.observe(std::vector<int>{0, 1, 2});
  EXPECT_GT(m.total_events(), 0);
}

// --- transformer -------------------------------------------------------------

TransformerConfig tiny_config(int vocab = 5) {
  return TransformerConfig{.vocab_size = vocab,
                           .d_model = 16,
                           .n_layers = 2,
                           .n_heads = 2,
                           .d_ff = 24,
                           .max_seq = 12};
}

TEST(Transformer, ShapesAndDeterminism) {
  util::Rng rng(7);
  const Transformer m(tiny_config(), rng);
  EXPECT_GT(m.num_parameters(), 1000u);
  const std::vector<int> ctx{0, 1, 2};
  const auto a = m.logits(ctx);
  const auto b = m.logits(ctx);
  ASSERT_EQ(a.size(), 5u);
  EXPECT_EQ(a, b) << "inference must be deterministic";
}

TEST(Transformer, EmptyContextGivesUnconditionalLogits) {
  util::Rng rng(8);
  const Transformer m(tiny_config(), rng);
  const auto l = m.logits({});
  ASSERT_EQ(l.size(), 5u);
  for (const float v : l) EXPECT_TRUE(std::isfinite(v));
}

TEST(Transformer, ContextIsTruncatedToWindow) {
  util::Rng rng(9);
  const Transformer m(tiny_config(), rng);
  std::vector<int> long_ctx(50, 1);
  EXPECT_NO_THROW(m.logits(long_ctx));
}

TEST(Transformer, RejectsBadConfig) {
  util::Rng rng(1);
  EXPECT_THROW(Transformer(TransformerConfig{.vocab_size = 0}, rng),
               util::PreconditionError);
  EXPECT_THROW(Transformer(TransformerConfig{.vocab_size = 4,
                                             .d_model = 10,
                                             .n_heads = 3},
                           rng),
               util::PreconditionError);
}

TEST(Transformer, RejectsOutOfRangeContextToken) {
  util::Rng rng(1);
  const Transformer m(tiny_config(), rng);
  EXPECT_THROW(m.logits(std::vector<int>{99}), util::PreconditionError);
}

TEST(Transformer, ParameterRoundTrip) {
  util::Rng rng(10);
  Transformer m(tiny_config(), rng);
  const auto flat = m.parameters_flat();
  std::vector<float> doubled = flat;
  for (float& v : doubled) v *= 2.0f;
  m.set_parameters_flat(doubled);
  EXPECT_EQ(m.parameters_flat(), doubled);
  EXPECT_THROW(m.set_parameters_flat(std::vector<float>{1.0f}),
               util::PreconditionError);
}

// The decisive test for hand-written backprop: analytic gradients must match
// central finite differences on a random subset of parameters.
TEST(Transformer, GradientMatchesFiniteDifference) {
  util::Rng rng(11);
  Transformer m(tiny_config(4), rng);
  const std::vector<std::vector<int>> rows{{0, 1, 2, 3, 1, 0},
                                           {3, 2, 1, 0, 2}};

  const auto [loss0, grad] = m.loss_and_gradient(rows);
  EXPECT_TRUE(std::isfinite(loss0));
  auto flat = m.parameters_flat();
  ASSERT_EQ(flat.size(), grad.size());

  util::Rng pick(12);
  constexpr double kEps = 1e-3;
  int checked = 0;
  double worst = 0.0;
  while (checked < 60) {
    const auto i = static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(flat.size()) - 1));
    const float saved = flat[i];

    flat[i] = saved + static_cast<float>(kEps);
    m.set_parameters_flat(flat);
    const double lp = m.loss_and_gradient(rows).first;
    flat[i] = saved - static_cast<float>(kEps);
    m.set_parameters_flat(flat);
    const double lm = m.loss_and_gradient(rows).first;
    flat[i] = saved;
    m.set_parameters_flat(flat);

    const double numeric = (lp - lm) / (2 * kEps);
    const double analytic = static_cast<double>(grad[i]);
    // Skip near-zero coordinates: the loss is float32, so the central
    // difference carries ~1e-7/eps ≈ 1e-4 absolute noise.
    if (std::abs(numeric) < 2e-3 && std::abs(analytic) < 2e-3) {
      ++checked;
      continue;
    }
    const double rel = std::abs(numeric - analytic) /
                       std::max({std::abs(numeric), std::abs(analytic), 1e-4});
    worst = std::max(worst, rel);
    EXPECT_LT(rel, 0.08) << "param " << i << ": analytic " << analytic
                         << " vs numeric " << numeric;
    ++checked;
  }
  // The typical case should be far tighter than the per-coordinate bound.
  EXPECT_LT(worst, 0.08);
}

TEST(Transformer, KvCacheMatchesColdForward) {
  util::Rng rng(19);
  const Transformer m(tiny_config(6), rng);
  util::Rng ctx_rng(20);
  // Grow a context token by token (the decoder's access pattern), and
  // interleave unrelated contexts to force cache resets; every answer must
  // be bit-identical to the cold forward pass of the same context.
  std::vector<int> ctx;
  for (int step = 0; step < 20; ++step) {
    ctx.push_back(static_cast<int>(ctx_rng.uniform_int(0, 5)));
    const auto warm = m.logits(ctx);
    // Cold pass: same model, cache invalidated by querying a disjoint
    // context first.
    std::vector<int> other(3, 0);
    (void)m.logits(other);
    EXPECT_EQ(warm, m.logits(ctx)) << "step " << step;
  }
}

TEST(Transformer, DecodePathAgreesWithTrainingPath) {
  // The training forward runs a whole row through its own matmul, so it is
  // an independent reference for the KV-cached decode path. Over a row's
  // positions, the mean of -log softmax(logits(prefix))[next token] must
  // match evaluate({row}). Rows of 1 to max_seq-1 tokens compare every
  // position of both layers, up to attention over a full window.
  util::Rng rng(21);
  Transformer m(tiny_config(5), rng);
  util::Rng toks(32);
  const int max_len = tiny_config().max_seq - 1;
  for (int len = 1; len <= max_len; ++len) {
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<int> row;
      for (int i = 0; i < len; ++i)
        row.push_back(static_cast<int>(toks.uniform_int(0, 4)));
      double total = 0.0;
      for (int t = 0; t < len; ++t) {
        const auto logits = m.logits(
            std::span<const int>(row).first(static_cast<std::size_t>(t)));
        double maxv = -1e30;
        for (const float l : logits)
          maxv = std::max(maxv, static_cast<double>(l));
        double sum = 0.0;
        for (const float l : logits)
          sum += std::exp(static_cast<double>(l) - maxv);
        const int next = row[static_cast<std::size_t>(t)];
        total -= static_cast<double>(logits[static_cast<std::size_t>(next)]) -
                 maxv - std::log(sum);
      }
      const std::vector<std::vector<int>> rows{row};
      EXPECT_NEAR(m.evaluate(rows), total / len, 1e-4) << "length " << len;
    }
  }
}

// --- absolute reference for inference ---------------------------------------

// A scalar forward written from the documented arithmetic (DESIGN.md §13.3)
// alone. It shares no code with the model: the weights come from
// parameters_flat() in its documented order, and every sum runs in the
// documented order. The model's logits must equal it bit for bit.

float ref_gelu(float x) {
  const float t = 0.7978845608028654f * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(t));
}

std::vector<float> ref_layer_norm(const std::vector<float>& x, const float* g,
                                  const float* b) {
  float mean = 0.0f;
  for (const float xi : x) mean += xi;
  mean /= static_cast<float>(x.size());
  float var = 0.0f;
  for (const float xi : x) var += (xi - mean) * (xi - mean);
  var /= static_cast<float>(x.size());
  const float rstd = 1.0f / std::sqrt(var + 1e-5f);
  std::vector<float> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = (x[i] - mean) * rstd * g[i] + b[i];
  return out;
}

// y = x W + b, W row-major with n columns: y[j] starts from b[j] and adds
// x[i] * W[i][j] in ascending i, skipping x[i] == 0.
std::vector<float> ref_linear(const std::vector<float>& x, const float* w,
                              const float* b, std::size_t n) {
  std::vector<float> y(b, b + n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < x.size(); ++i)
      if (x[i] != 0.0f) y[j] += x[i] * w[i * n + j];
  return y;
}

std::vector<float> reference_logits(const TransformerConfig& c,
                                    const std::vector<float>& flat,
                                    std::span<const int> context) {
  const auto v = static_cast<std::size_t>(c.vocab_size);
  const auto d = static_cast<std::size_t>(c.d_model);
  const auto f = static_cast<std::size_t>(c.d_ff);
  const std::size_t dh = d / static_cast<std::size_t>(c.n_heads);
  const float* next = flat.data();
  const auto take = [&next](std::size_t n) {
    return std::exchange(next, next + n);
  };
  const float* tok = take((v + 1) * d);
  const float* pos = take(static_cast<std::size_t>(c.max_seq) * d);
  const float *lnf_g = take(d), *lnf_b = take(d);
  const float *w_out = take(d * v), *b_out = take(v);

  // START, then at most the last max_seq - 1 context tokens.
  const std::size_t keep = std::min(
      context.size(), static_cast<std::size_t>(c.max_seq - 1));
  std::vector<int> ids{c.vocab_size};
  ids.insert(ids.end(), context.end() - static_cast<std::ptrdiff_t>(keep),
             context.end());
  std::vector<std::vector<float>> x(ids.size(), std::vector<float>(d));
  for (std::size_t t = 0; t < ids.size(); ++t)
    for (std::size_t i = 0; i < d; ++i)
      x[t][i] = tok[static_cast<std::size_t>(ids[t]) * d + i] + pos[t * d + i];

  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  for (int layer = 0; layer < c.n_layers; ++layer) {
    const float *ln1_g = take(d), *ln1_b = take(d);
    const float *w_qkv = take(d * 3 * d), *b_qkv = take(3 * d);
    const float *w_o = take(d * d), *b_o = take(d);
    const float *ln2_g = take(d), *ln2_b = take(d);
    const float *w_fc1 = take(d * f), *b_fc1 = take(f);
    const float *w_fc2 = take(f * d), *b_fc2 = take(d);
    std::vector<std::vector<float>> qkv;
    for (const auto& xt : x)
      qkv.push_back(ref_linear(ref_layer_norm(xt, ln1_g, ln1_b), w_qkv, b_qkv,
                               3 * d));
    for (std::size_t t = 0; t < x.size(); ++t) {
      // Per head: softmax of scale * q.k_u over u <= t, then the weighted sum
      // of the v_u from 0 in ascending u.
      std::vector<float> ctx(d, 0.0f);
      for (std::size_t h = 0; h < dh * static_cast<std::size_t>(c.n_heads);
           h += dh) {
        std::vector<float> att(t + 1);
        float maxv = -1e30f;
        for (std::size_t u = 0; u <= t; ++u) {
          float dot = 0.0f;
          for (std::size_t i = 0; i < dh; ++i)
            dot += qkv[t][h + i] * qkv[u][d + h + i];
          att[u] = dot * scale;
          maxv = std::max(maxv, att[u]);
        }
        float total = 0.0f;
        for (float& a : att) {
          a = std::exp(a - maxv);
          total += a;
        }
        const float inv = 1.0f / total;
        for (std::size_t u = 0; u <= t; ++u)
          for (std::size_t i = 0; i < dh; ++i)
            ctx[h + i] += att[u] * inv * qkv[u][2 * d + h + i];
      }
      const auto attn = ref_linear(ctx, w_o, b_o, d);
      for (std::size_t i = 0; i < d; ++i) x[t][i] += attn[i];
      auto hidden =
          ref_linear(ref_layer_norm(x[t], ln2_g, ln2_b), w_fc1, b_fc1, f);
      for (float& hi : hidden) hi = ref_gelu(hi);
      const auto mlp = ref_linear(hidden, w_fc2, b_fc2, d);
      for (std::size_t i = 0; i < d; ++i) x[t][i] += mlp[i];
    }
  }
  return ref_linear(ref_layer_norm(x.back(), lnf_g, lnf_b), w_out, b_out, v);
}

TEST(Transformer, InferenceMatchesScalarReference) {
  // perfbench's model; tiny_config; an odd shape whose widths (60, 180, 36
  // and 7 columns, head width 20) run every column tail of the linear kernel
  // and the attention tail for head widths other than 16; and three layers,
  // whose middle one must run at every new position like the first: only
  // the final layer narrows to the last position.
  const std::vector<TransformerConfig> shapes{
      {.vocab_size = 19, .d_model = 64, .n_layers = 2, .n_heads = 4,
       .d_ff = 128, .max_seq = 64},
      tiny_config(6),
      {.vocab_size = 7, .d_model = 60, .n_layers = 1, .n_heads = 3,
       .d_ff = 36, .max_seq = 20},
      {.vocab_size = 5, .d_model = 16, .n_layers = 3, .n_heads = 2,
       .d_ff = 24, .max_seq = 12}};
  util::Rng rng(34);
  for (const TransformerConfig& c : shapes) {
    Transformer m(c, rng);
    // Random values for every parameter, biases and LayerNorm included, so
    // that any change of order shows in the bits.
    std::vector<float> flat = m.parameters_flat();
    for (float& w : flat) w = static_cast<float>(rng.normal(0.0, 0.4));
    m.set_parameters_flat(flat);
    const auto token = [&] {
      return static_cast<int>(rng.uniform_int(0, c.vocab_size - 1));
    };

    const auto expect_reference = [&](const std::vector<int>& context,
                                      KvCache& kv) {
      EXPECT_EQ(m.logits(context, kv), reference_logits(c, flat, context))
          << "d_model " << c.d_model << ", " << context.size() << " tokens";
    };

    // The context grows by 1-4 tokens per call through one KvCache, past the
    // window.
    KvCache cache;
    std::vector<int> ctx;
    while (ctx.size() < static_cast<std::size_t>(c.max_seq + 8)) {
      for (auto k = rng.uniform_int(1, 4); k > 0; --k) ctx.push_back(token());
      expect_reference(ctx, cache);
    }

    // A cold 20-token context, a 1-token append to the grown context, and a
    // 3-token append to a warm 4-token context.
    std::vector<int> cold_ctx, warm_ctx;
    for (int i = 0; i < 20; ++i) cold_ctx.push_back(token());
    ctx.push_back(token());
    for (int i = 0; i < 4; ++i) warm_ctx.push_back(token());
    KvCache cold, warm;
    (void)m.logits(warm_ctx, warm);
    for (int i = 0; i < 3; ++i) warm_ctx.push_back(token());
    expect_reference(cold_ctx, cold);
    expect_reference(ctx, cache);
    expect_reference(warm_ctx, warm);
  }
}

TEST(Transformer, TrainingReducesLossOnTinyCorpus) {
  util::Rng rng(13);
  Transformer m(tiny_config(4), rng);
  // A strongly patterned corpus the model should memorize quickly.
  std::vector<std::vector<int>> rows;
  for (int i = 0; i < 8; ++i) rows.push_back({0, 1, 2, 3, 0, 1, 2, 3});

  const float before = m.evaluate(rows);
  util::Rng train_rng(14);
  const TrainConfig cfg{.steps = 60,
                        .batch_size = 4,
                        .adam = AdamConfig{.lr = 1e-2f},
                        .warmup_steps = 5};
  const TrainReport report = train_lm(m, rows, cfg, train_rng);
  const float after = m.evaluate(rows);
  EXPECT_LT(after, before * 0.6f)
      << "loss " << before << " -> " << after << " (report last "
      << report.final_loss << ")";
}

TEST(Transformer, SaveLoadRoundTrip) {
  util::Rng rng(22);
  const Transformer original(tiny_config(6), rng);
  const std::string path = ::testing::TempDir() + "lejit_ckpt_test.bin";
  original.save(path);
  const Transformer loaded = Transformer::load(path);
  EXPECT_EQ(loaded.config().d_model, original.config().d_model);
  EXPECT_EQ(loaded.parameters_flat(), original.parameters_flat());
  const std::vector<int> ctx{0, 3, 1};
  EXPECT_EQ(loaded.logits(ctx), original.logits(ctx));
}

// A checkpoint file: magic, version, the six dimensions in TransformerConfig
// order, the parameter count, then `floats` zero floats.
void write_checkpoint(const std::string& path,
                      const std::vector<std::uint32_t>& dims,
                      std::uint32_t count, std::size_t floats) {
  std::vector<std::uint32_t> words{0x4C654A54, 1};
  words.insert(words.end(), dims.begin(), dims.end());
  words.push_back(count);
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(words.data()),
            static_cast<std::streamsize>(words.size() * sizeof(std::uint32_t)));
  const std::vector<float> zeros(floats, 0.0f);
  out.write(reinterpret_cast<const char*>(zeros.data()),
            static_cast<std::streamsize>(floats * sizeof(float)));
}

TEST(Transformer, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "lejit_ckpt_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint at all";
  }
  EXPECT_THROW(Transformer::load(path), util::RuntimeError);
  EXPECT_THROW(Transformer::load("/nonexistent/path.bin"), util::RuntimeError);

  // Headers that lie about the model: zero heads (a division by zero if it
  // reached the constructor), and valid dimensions with a parameter count of
  // 0 that the file matches.
  util::Rng rng(33);
  const auto n = static_cast<std::uint32_t>(
      Transformer(tiny_config(5), rng).num_parameters());
  write_checkpoint(path, {5, 16, 2, 0, 24, 12}, n, n);
  EXPECT_THROW(Transformer::load(path), util::RuntimeError);
  write_checkpoint(path, {5, 16, 2, 2, 24, 12}, 0, 0);
  EXPECT_THROW(Transformer::load(path), util::RuntimeError);
  // The same header with its parameters loads.
  write_checkpoint(path, {5, 16, 2, 2, 24, 12}, n, n);
  EXPECT_EQ(Transformer::load(path).num_parameters(), n);
}

// --- KV cache ----------------------------------------------------------------

TEST(Transformer, CallerCacheMatchesInternalCacheBitExactly) {
  util::Rng rng(23);
  const Transformer m(tiny_config(6), rng);
  KvCache cache;
  // Empty context, short context, and a context past the window limit: the
  // caller-owned-cache overload runs the same kernel as the internal path,
  // so the answers must be bit-identical, not just close.
  for (const auto& ctx : std::vector<std::vector<int>>{
           {}, {0, 1, 2}, {1, 4}, std::vector<int>(30, 2)}) {
    EXPECT_EQ(m.logits(ctx, cache), m.logits(ctx));
  }
}

TEST(Transformer, RewoundContextMatchesColdForward) {
  // Dead-end recovery rewinds the decoder's context: after answering a long
  // context, a query for one of its prefixes must be bit-identical to a
  // cold forward of that prefix (the LCP logic may not serve stale suffix
  // state).
  util::Rng rng(24);
  const Transformer m(tiny_config(6), rng);
  KvCache warm;
  const std::vector<int> full{0, 1, 2, 3, 4, 5, 0, 1};
  (void)m.logits(full, warm);
  for (std::size_t keep = full.size() - 1; keep > 0; --keep) {
    const std::vector<int> rewound(full.begin(),
                                   full.begin() + static_cast<long>(keep));
    KvCache fresh;
    EXPECT_EQ(m.logits(rewound, warm), m.logits(rewound, fresh))
        << "rewound to " << keep << " tokens";
  }
}

TEST(Transformer, KvCacheRejectsForeignModelShape) {
  util::Rng rng(29);
  const Transformer small(tiny_config(4), rng);
  const Transformer big(
      TransformerConfig{.vocab_size = 4, .d_model = 32, .n_layers = 1,
                        .n_heads = 2, .d_ff = 24, .max_seq = 12},
      rng);
  KvCache cache;
  (void)small.logits(std::vector<int>{0, 1}, cache);
  EXPECT_THROW(big.logits(std::vector<int>{0, 1}, cache),
               util::PreconditionError);
}

// Pins the KV-cache efficiency contract (lm.kv.* counters): below the window
// limit every step reuses the full cached prefix and recomputes exactly one
// token; past the limit the sliding window shifts every step, the common
// prefix collapses to the START token, and each step reprocesses the whole
// max_seq-1 window — the documented O(ctx²) post-window regime.
TEST(Transformer, KvCountersPinFullPrefixReuseAndWindowCliff) {
  util::Rng rng(30);
  const int max_seq = tiny_config().max_seq;  // 12
  const Transformer m(tiny_config(6), rng);

  obs::set_metrics_enabled(true);
  auto& registry = obs::MetricsRegistry::instance();
  auto& reused = registry.counter("lm.kv.reused_tokens");
  auto& recomputed = registry.counter("lm.kv.recomputed_tokens");

  KvCache cache;
  std::vector<int> ctx;
  // Non-repeating window content (period 6 > shift 1), so a shifted window
  // never accidentally matches the cached one.
  for (int step = 0; step < 30; ++step) {
    ctx.push_back(step % 6);
    const std::int64_t reused_before = reused.value();
    const std::int64_t recomputed_before = recomputed.value();
    (void)m.logits(ctx, cache);
    const std::int64_t dr = reused.value() - reused_before;
    const std::int64_t dc = recomputed.value() - recomputed_before;
    if (static_cast<int>(ctx.size()) == 1) {
      // Cold cache: START + first token both recomputed.
      EXPECT_EQ(dr, 0) << "step " << step;
      EXPECT_EQ(dc, 2) << "step " << step;
    } else if (static_cast<int>(ctx.size()) < max_seq) {
      // Below the window: full prefix reuse, exactly one token recomputed.
      EXPECT_EQ(dr, static_cast<std::int64_t>(ctx.size())) << "step " << step;
      EXPECT_EQ(dc, 1) << "step " << step;
    } else {
      // Past the window: only START survives the shift; the whole window is
      // reprocessed.
      EXPECT_EQ(dr, 1) << "step " << step;
      EXPECT_EQ(dc, max_seq - 1) << "step " << step;
    }
  }
  obs::set_metrics_enabled(false);
}

TEST(TransformerSession, ConcurrentViewsMatchSharedModel) {
  // TransformerSession is the per-thread view the serve runtime hands out:
  // interleaved sessions over one shared model must each behave exactly like
  // the model queried alone.
  util::Rng rng(31);
  const Transformer m(tiny_config(6), rng);
  TransformerSession s1(m), s2(m);
  EXPECT_EQ(s1.vocab_size(), m.vocab_size());

  std::vector<int> c1, c2{5, 4, 3};
  for (int step = 0; step < 10; ++step) {
    c1.push_back(step % 6);
    c2.push_back((5 - step % 6) % 6);
    KvCache f1, f2;
    EXPECT_EQ(s1.logits(c1), m.logits(c1, f1)) << "step " << step;
    EXPECT_EQ(s2.logits(c2), m.logits(c2, f2)) << "step " << step;
  }
}

TEST(Trainer, LogsWhenRequested) {
  util::Rng rng(15);
  Transformer m(tiny_config(3), rng);
  const std::vector<std::vector<int>> rows{{0, 1, 2}, {2, 1, 0}};
  int calls = 0;
  util::Rng train_rng(16);
  train_lm(m, rows,
           TrainConfig{.steps = 10, .batch_size = 2, .log_every = 2},
           train_rng, [&](int, float) { ++calls; });
  EXPECT_EQ(calls, 5);
}

TEST(Trainer, RejectsEmptyCorpus) {
  util::Rng rng(17);
  Transformer m(tiny_config(3), rng);
  util::Rng train_rng(18);
  EXPECT_THROW(train_lm(m, {}, TrainConfig{}, train_rng),
               util::PreconditionError);
}

}  // namespace
}  // namespace lejit::lm
