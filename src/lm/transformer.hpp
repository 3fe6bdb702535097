// A GPT-2-style decoder-only transformer, trained from scratch in-process.
//
// This mirrors the paper's setup (§4: "we train GPT-2 from scratch on the
// datacenter dataset and adopt character-level tokenization") at nano scale:
// learned token + position embeddings, pre-LN blocks with causal multi-head
// self-attention and a GELU MLP, and an untied output head. Forward,
// backward (full manual backprop) and AdamW live here; no external ML
// dependency is used anywhere in the repository.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "lm/lm.hpp"
#include "lm/tensor.hpp"
#include "util/rng.hpp"

namespace lejit::lm {

struct TransformerConfig {
  int vocab_size = 0;
  int d_model = 64;
  int n_layers = 2;
  int n_heads = 2;
  int d_ff = 128;
  int max_seq = 160;
};

struct AdamConfig {
  float lr = 3e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.99f;
  float eps = 1e-8f;
  float weight_decay = 0.01f;
  float grad_clip = 1.0f;  // global-norm clip; <= 0 disables
};

// Per-session key/value cache for incremental decoding (DESIGN.md §13).
//
// The cache holds, per layer, the K and V rows of every position of the last
// processed context, keyed by the START-prefixed token ids. It is
// semantically invisible: logits computed through a cache are bit-identical
// to a cold forward pass. A Transformer keeps one internal KvCache for the
// plain logits() path; callers that decode concurrently over one shared
// model own one KvCache per session instead (see TransformerSession) — the
// model weights are read-only during inference, so distinct caches make
// concurrent decoding safe.
//
// A KvCache is bound to one model: training steps or set_parameters_flat()
// invalidate only the model's internal cache, so session caches must be
// clear()ed by their owners if the weights change under them.
struct KvCache {
  std::vector<int> ids;   // START-prefixed ids the cached rows correspond to
  std::vector<Mat> k, v;  // per layer, (max_seq, d_model)

  void clear() noexcept { ids.clear(); }
};

class Transformer final : public LanguageModel {
 public:
  Transformer(TransformerConfig config, util::Rng& rng);
  ~Transformer() override;

  Transformer(const Transformer&) = delete;
  Transformer& operator=(const Transformer&) = delete;
  Transformer(Transformer&&) noexcept;
  Transformer& operator=(Transformer&&) noexcept;

  const TransformerConfig& config() const noexcept { return config_; }
  std::size_t num_parameters() const noexcept;

  // --- inference ---------------------------------------------------------
  int vocab_size() const override { return config_.vocab_size; }
  // Next-token logits after `context` (uses at most the last max_seq-1
  // tokens). An empty context yields the unconditional first-token logits
  // (position 0 with a learned start embedding).
  //
  // Both overloads run the one inference forward: every new position of the
  // context is a row of one block, and the final layer's attention, MLP and
  // head run at the last position only (DESIGN.md §13.3). An internal KV
  // cache makes repeated calls with growing contexts (the decoder's access
  // pattern) O(context) instead of O(context²) per call. The cache is
  // invisible semantically — logits are bit-identical to a cold forward
  // pass — but makes logits() non-reentrant: a runtime guard aborts with a
  // diagnostic if two threads overlap in here (use TransformerSession / the
  // KvCache overloads to share a model).
  //
  // Cache-efficiency note (lm.kv.* counters): while the context is shorter
  // than max_seq-1 every step reuses the full cached prefix and recomputes
  // only the final token. Once the context reaches the window limit the
  // sliding window shifts by one every step, the common prefix shrinks to
  // the START token, and every call reuses START and recomputes the other
  // max_seq-1 positions — the documented O(ctx²) post-window regime,
  // visible as lm.kv.recomputed_tokens outpacing lm.kv.reused_tokens.
  std::vector<float> logits(std::span<const int> context) const override;

  // Same computation through a caller-owned KvCache. Thread-safe for
  // concurrent calls with *distinct* caches (weights are read-only); the
  // reentrancy guard does not apply. Bit-identical to logits(context).
  std::vector<float> logits(std::span<const int> context, KvCache& cache) const;

  // --- training ----------------------------------------------------------
  // One optimizer step on a batch of token rows. Each row is trained with
  // next-token cross-entropy over all positions (a start token is prepended
  // internally so the first real token is also predicted). Returns the mean
  // per-token loss.
  float train_batch(std::span<const std::vector<int>> batch,
                    const AdamConfig& adam);

  // Mean next-token cross-entropy of `rows` without updating weights.
  float evaluate(std::span<const std::vector<int>> rows) const;

  // --- persistence -----------------------------------------------------------
  // Binary checkpoint: config + weights. Optimizer state is not saved; a
  // loaded model can continue training but Adam moments restart from zero.
  void save(const std::string& path) const;
  static Transformer load(const std::string& path);

  // --- introspection (gradient checks, checkpointing) ----------------------
  // Flat copy of all parameters, each tensor row-major, in this order: token
  // embedding ((vocab+1) x d_model, row vocab is START), position embedding
  // (max_seq x d_model), final LayerNorm gain and bias, output head weight
  // (d_model x vocab) and bias; then per layer: LayerNorm 1 gain and bias,
  // QKV weight (d_model x 3 d_model: Q, K and V column blocks, head h at
  // columns h*d_model/n_heads of each) and bias, attention output weight
  // (d_model x d_model) and bias, LayerNorm 2 gain and bias, MLP weights
  // (d_model x d_ff, d_ff x d_model) each followed by its bias.
  std::vector<float> parameters_flat() const;
  // Overwrite all parameters from a flat vector of matching size.
  void set_parameters_flat(std::span<const float> flat);
  // Mean loss over `rows` and the full gradient (same flat order), without
  // touching the weights or optimizer state.
  std::pair<float, std::vector<float>> loss_and_gradient(
      std::span<const std::vector<int>> rows);

 private:
  struct Impl;
  TransformerConfig config_;
  std::unique_ptr<Impl> impl_;
};

// A per-thread / per-session view of a shared Transformer: same logits, but
// the KV cache lives here, so any number of sessions can decode concurrently
// over one read-only model (e.g. each serve::DecodeSession decodes through
// its own TransformerSession on the server's shared model). The model must
// outlive the session and must not be trained while sessions are live.
class TransformerSession final : public LanguageModel {
 public:
  explicit TransformerSession(const Transformer& model) : model_(model) {}

  int vocab_size() const override { return model_.vocab_size(); }
  std::vector<float> logits(std::span<const int> context) const override {
    return model_.logits(context, cache_);
  }

  const Transformer& model() const noexcept { return model_; }
  KvCache& cache() noexcept { return cache_; }

 private:
  const Transformer& model_;
  mutable KvCache cache_;
};

}  // namespace lejit::lm
