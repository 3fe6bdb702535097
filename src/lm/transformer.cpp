#include "lm/transformer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numbers>
#include <thread>
#include <utility>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/error.hpp"

namespace lejit::lm {

namespace {

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

float gelu(float x) {
  const float t = kGeluC * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(t));
}

float gelu_grad(float x) {
  const float t = kGeluC * (x + 0.044715f * x * x * x);
  const float th = std::tanh(t);
  const float sech2 = 1.0f - th * th;
  return 0.5f * (1.0f + th) +
         0.5f * x * sech2 * kGeluC * (1.0f + 3.0f * 0.044715f * x * x);
}

// One trainable tensor with its gradient and AdamW state.
struct Param {
  Mat w, g, m, v;
  bool decay = true;

  void init(int rows, int cols, bool use_decay) {
    w = Mat(rows, cols);
    g = Mat(rows, cols);
    m = Mat(rows, cols);
    v = Mat(rows, cols);
    decay = use_decay;
  }
};

// LayerNorm of one d-vector, the one LayerNorm of both forwards. Training
// passes `xhat` and `rstd_out` to keep them for backward; inference passes
// nullptr.
void layer_norm(const float* x, const Param& gamma, const Param& beta, int d,
                float* out, float* xhat = nullptr, float* rstd_out = nullptr) {
  float mean = 0.0f;
  for (int i = 0; i < d; ++i) mean += x[i];
  mean /= static_cast<float>(d);
  float var = 0.0f;
  for (int i = 0; i < d; ++i) {
    const float c = x[i] - mean;
    var += c * c;
  }
  var /= static_cast<float>(d);
  const float rstd = 1.0f / std::sqrt(var + 1e-5f);
  for (int i = 0; i < d; ++i)
    out[i] = (x[i] - mean) * rstd * gamma.w.data[static_cast<std::size_t>(i)] +
             beta.w.data[static_cast<std::size_t>(i)];
  if (xhat == nullptr) return;
  *rstd_out = rstd;
  for (int i = 0; i < d; ++i) xhat[i] = (x[i] - mean) * rstd;
}

// LayerNorm forward over rows of x; caches xhat and rstd for backward.
struct LnCache {
  Mat xhat;
  std::vector<float> rstd;
};

void ln_forward(const Mat& x, const Param& gamma, const Param& beta, Mat& out,
                LnCache& cache) {
  const int s = x.rows, d = x.cols;
  if (out.rows != s || out.cols != d) out = Mat(s, d);
  cache.xhat = Mat(s, d);
  cache.rstd.assign(static_cast<std::size_t>(s), 0.0f);
  for (int t = 0; t < s; ++t)
    layer_norm(x.row(t), gamma, beta, d, out.row(t), cache.xhat.row(t),
               &cache.rstd[static_cast<std::size_t>(t)]);
}

// Four floats in one SSE register, the x86-64 baseline, as a GCC/Clang
// vector type: + and * on it are addps and mulps, rounding each lane exactly
// as the scalar operation would. Loads and stores are unaligned.
typedef float V4 __attribute__((vector_size(16)));

V4 load4(const float* p) {
  V4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store4(float* p, V4 v) { std::memcpy(p, &v, sizeof v); }

// Causal attention of one query row q for one head, over the n positions
// whose key and value rows start at k and v, `stride` floats apart:
// out = sum_u att[u] * v_u with att = softmax(scale * q.k_u). Leaves the
// normalized weights in att[0, n). The training forward reads K/V from its
// qkv rows and keeps the weights for backward; decode reads the session's
// KvCache.
//
// Each dot product sums q[i] * k_u[i] in ascending i; four keys run at once
// as four independent chains. Each out[i] sums att[u] * v_u[i] from 0 in
// ascending u, sixteen columns at a time held in registers across all keys.
void attend(const float* q, const float* k, const float* v, std::size_t stride,
            int n, int dh, float scale, float* att, float* out) {
  const auto row = [stride](const float* base, int u) {
    return base + static_cast<std::size_t>(u) * stride;
  };
  int u = 0;
  for (; u + 4 <= n; u += 4) {
    const float *k0 = row(k, u), *k1 = row(k, u + 1), *k2 = row(k, u + 2),
                *k3 = row(k, u + 3);
    float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
    for (int i = 0; i < dh; ++i) {
      a0 += q[i] * k0[i];
      a1 += q[i] * k1[i];
      a2 += q[i] * k2[i];
      a3 += q[i] * k3[i];
    }
    att[u] = a0 * scale;
    att[u + 1] = a1 * scale;
    att[u + 2] = a2 * scale;
    att[u + 3] = a3 * scale;
  }
  for (; u < n; ++u) {
    const float* ku = row(k, u);
    float acc = 0.0f;
    for (int i = 0; i < dh; ++i) acc += q[i] * ku[i];
    att[u] = acc * scale;
  }
  float maxv = -1e30f;
  for (u = 0; u < n; ++u) maxv = std::max(maxv, att[u]);
  float total = 0.0f;
  for (u = 0; u < n; ++u) {
    att[u] = std::exp(att[u] - maxv);
    total += att[u];
  }
  const float inv = 1.0f / total;
  for (u = 0; u < n; ++u) att[u] *= inv;

  int c = 0;
  for (; c + 16 <= dh; c += 16) {
    V4 o0{}, o1{}, o2{}, o3{};
    for (u = 0; u < n; ++u) {
      const float a = att[u];
      const float* vu = row(v, u) + c;
      o0 += a * load4(vu);
      o1 += a * load4(vu + 4);
      o2 += a * load4(vu + 8);
      o3 += a * load4(vu + 12);
    }
    store4(out + c, o0);
    store4(out + c + 4, o1);
    store4(out + c + 8, o2);
    store4(out + c + 12, o3);
  }
  for (; c < dh; ++c) {
    float o = 0.0f;
    for (u = 0; u < n; ++u) o += att[u] * row(v, u)[c];
    out[c] = o;
  }
}

// dx += backward of LayerNorm given dout; accumulates dgamma/dbeta.
void ln_backward(const Mat& dout, const LnCache& cache, Param& gamma,
                 Param& beta, Mat& dx) {
  const int s = dout.rows, d = dout.cols;
  for (int t = 0; t < s; ++t) {
    const float* dot_ = dout.row(t);
    const float* xh = cache.xhat.row(t);
    const float rstd = cache.rstd[static_cast<std::size_t>(t)];
    float sum_dxhat = 0.0f, sum_dxhat_xhat = 0.0f;
    for (int i = 0; i < d; ++i) {
      const float dxh = dot_[i] * gamma.w.data[static_cast<std::size_t>(i)];
      sum_dxhat += dxh;
      sum_dxhat_xhat += dxh * xh[i];
      gamma.g.data[static_cast<std::size_t>(i)] += dot_[i] * xh[i];
      beta.g.data[static_cast<std::size_t>(i)] += dot_[i];
    }
    const float inv_d = 1.0f / static_cast<float>(d);
    float* dxt = dx.row(t);
    for (int i = 0; i < d; ++i) {
      const float dxh = dot_[i] * gamma.w.data[static_cast<std::size_t>(i)];
      dxt[i] +=
          rstd * (dxh - inv_d * sum_dxhat - xh[i] * inv_d * sum_dxhat_xhat);
    }
  }
}

void add_bias(Mat& x, const Param& b) {
  for (int t = 0; t < x.rows; ++t) {
    float* xt = x.row(t);
    for (int i = 0; i < x.cols; ++i)
      xt[i] += b.w.data[static_cast<std::size_t>(i)];
  }
}

void bias_grad(const Mat& dout, Param& b) {
  for (int t = 0; t < dout.rows; ++t) {
    const float* dt = dout.row(t);
    for (int i = 0; i < dout.cols; ++i)
      b.g.data[static_cast<std::size_t>(i)] += dt[i];
  }
}

struct LayerParams {
  Param ln1_g, ln1_b, w_qkv, b_qkv, w_o, b_o;
  Param ln2_g, ln2_b, w_fc1, b_fc1, w_fc2, b_fc2;
};

// Activations cached during forward for one sequence.
struct LayerCache {
  Mat x_in;      // layer input
  LnCache ln1;
  Mat ln1_out;
  Mat qkv;
  std::vector<Mat> att;  // per head, S×S row-softmaxed attention
  Mat ctx;
  Mat x_mid;     // after attention residual
  LnCache ln2;
  Mat ln2_out;
  Mat fc1_pre;   // before GELU
  Mat fc1_act;
};

struct ForwardCache {
  std::vector<int> ids;  // START-prefixed input ids
  Mat x0;
  std::vector<LayerCache> layers;
  LnCache lnf;
  Mat lnf_out;
  Mat logits;
};

// Build the START-prefixed input ids and the targets for one row, capped to
// the model's context length.
void make_training_pair(const std::vector<int>& row, int max_seq, int start_id,
                        std::vector<int>& ids, std::vector<int>& targets) {
  LEJIT_REQUIRE(!row.empty(), "empty training row");
  const std::size_t keep =
      std::min(row.size(), static_cast<std::size_t>(max_seq - 1));
  ids.clear();
  ids.reserve(keep);
  ids.push_back(start_id);
  for (std::size_t i = 0; i + 1 < keep; ++i) ids.push_back(row[i]);
  targets.assign(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(keep));
}

}  // namespace

struct Transformer::Impl {
  TransformerConfig cfg;
  Param tok_emb;  // (vocab+1, d): row vocab is the internal START token
  Param pos_emb;  // (max_seq, d)
  std::vector<LayerParams> layers;
  Param lnf_g, lnf_b, w_out, b_out;
  std::int64_t adam_t = 0;

  // KV cache backing the plain logits() path. Mutable because it is
  // semantically invisible: logits match a cold forward pass exactly.
  mutable KvCache cache;
  // Reentrancy guard for that internal cache: 0 when unowned, otherwise a
  // nonzero fingerprint of the thread currently inside logits().
  mutable std::atomic<std::uint64_t> logits_owner{0};

  void invalidate_cache() const { cache.clear(); }

  // Lazily size a cache for this model and reject caches shaped for another.
  void ensure_cache_shape(KvCache& kv) const;

  // The one inference forward: reuse the cache's K/V for the common prefix
  // of `ids`, process only the new suffix, return logits at the last
  // position.
  std::vector<float> decode_logits(const std::vector<int>& ids,
                                   KvCache& kv) const;

  std::vector<Param*> all_params() {
    std::vector<Param*> ps{&tok_emb, &pos_emb, &lnf_g, &lnf_b, &w_out, &b_out};
    for (auto& l : layers) {
      for (Param* p : {&l.ln1_g, &l.ln1_b, &l.w_qkv, &l.b_qkv, &l.w_o, &l.b_o,
                       &l.ln2_g, &l.ln2_b, &l.w_fc1, &l.b_fc1, &l.w_fc2,
                       &l.b_fc2})
        ps.push_back(p);
    }
    return ps;
  }

  void init(util::Rng& rng) {
    const int d = cfg.d_model;
    tok_emb.init(cfg.vocab_size + 1, d, true);
    tok_emb.w.init_normal(rng, 0.02f);
    pos_emb.init(cfg.max_seq, d, true);
    pos_emb.w.init_normal(rng, 0.02f);
    layers.resize(static_cast<std::size_t>(cfg.n_layers));
    const float resid_scale =
        0.02f / std::sqrt(2.0f * static_cast<float>(cfg.n_layers));
    for (auto& l : layers) {
      l.ln1_g.init(1, d, false);
      std::fill(l.ln1_g.w.data.begin(), l.ln1_g.w.data.end(), 1.0f);
      l.ln1_b.init(1, d, false);
      l.w_qkv.init(d, 3 * d, true);
      l.w_qkv.w.init_normal(rng, 0.02f);
      l.b_qkv.init(1, 3 * d, false);
      l.w_o.init(d, d, true);
      l.w_o.w.init_normal(rng, resid_scale);
      l.b_o.init(1, d, false);
      l.ln2_g.init(1, d, false);
      std::fill(l.ln2_g.w.data.begin(), l.ln2_g.w.data.end(), 1.0f);
      l.ln2_b.init(1, d, false);
      l.w_fc1.init(d, cfg.d_ff, true);
      l.w_fc1.w.init_normal(rng, 0.02f);
      l.b_fc1.init(1, cfg.d_ff, false);
      l.w_fc2.init(cfg.d_ff, d, true);
      l.w_fc2.w.init_normal(rng, resid_scale);
      l.b_fc2.init(1, d, false);
    }
    lnf_g.init(1, d, false);
    std::fill(lnf_g.w.data.begin(), lnf_g.w.data.end(), 1.0f);
    lnf_b.init(1, d, false);
    w_out.init(d, cfg.vocab_size, true);
    w_out.w.init_normal(rng, 0.02f);
    b_out.init(1, cfg.vocab_size, false);
  }

  // Forward pass over START-prefixed ids; fills `fc`.
  void forward(const std::vector<int>& ids, ForwardCache& fc) const {
    const int s = static_cast<int>(ids.size());
    const int d = cfg.d_model;
    const int nh = cfg.n_heads;
    const int dh = d / nh;
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

    fc.ids = ids;
    fc.x0 = Mat(s, d);
    for (int t = 0; t < s; ++t) {
      const float* e =
          tok_emb.w.row(ids[static_cast<std::size_t>(t)]);
      const float* p = pos_emb.w.row(t);
      float* x = fc.x0.row(t);
      for (int i = 0; i < d; ++i) x[i] = e[i] + p[i];
    }

    fc.layers.assign(static_cast<std::size_t>(cfg.n_layers), LayerCache{});
    Mat x = fc.x0;
    Mat tmp;
    for (int li = 0; li < cfg.n_layers; ++li) {
      const LayerParams& lp = layers[static_cast<std::size_t>(li)];
      LayerCache& lc = fc.layers[static_cast<std::size_t>(li)];
      lc.x_in = x;

      ln_forward(x, lp.ln1_g, lp.ln1_b, lc.ln1_out, lc.ln1);
      matmul(lc.ln1_out, lp.w_qkv.w, lc.qkv);
      add_bias(lc.qkv, lp.b_qkv);

      lc.att.assign(static_cast<std::size_t>(nh), Mat(s, s));
      lc.ctx = Mat(s, d);
      for (int h = 0; h < nh; ++h) {
        const int qo = h * dh;
        for (int t = 0; t < s; ++t)
          attend(lc.qkv.row(t) + qo, lc.qkv.row(0) + d + qo,
                 lc.qkv.row(0) + 2 * d + qo, static_cast<std::size_t>(3 * d),
                 t + 1, dh, scale, lc.att[static_cast<std::size_t>(h)].row(t),
                 lc.ctx.row(t) + qo);
      }

      matmul(lc.ctx, lp.w_o.w, tmp);
      add_bias(tmp, lp.b_o);
      lc.x_mid = Mat(s, d);
      for (std::size_t i = 0; i < lc.x_mid.data.size(); ++i)
        lc.x_mid.data[i] = x.data[i] + tmp.data[i];

      ln_forward(lc.x_mid, lp.ln2_g, lp.ln2_b, lc.ln2_out, lc.ln2);
      matmul(lc.ln2_out, lp.w_fc1.w, lc.fc1_pre);
      add_bias(lc.fc1_pre, lp.b_fc1);
      lc.fc1_act = Mat(s, cfg.d_ff);
      for (std::size_t i = 0; i < lc.fc1_act.data.size(); ++i)
        lc.fc1_act.data[i] = gelu(lc.fc1_pre.data[i]);
      matmul(lc.fc1_act, lp.w_fc2.w, tmp);
      add_bias(tmp, lp.b_fc2);
      x = Mat(s, d);
      for (std::size_t i = 0; i < x.data.size(); ++i)
        x.data[i] = lc.x_mid.data[i] + tmp.data[i];
    }

    ln_forward(x, lnf_g, lnf_b, fc.lnf_out, fc.lnf);
    matmul(fc.lnf_out, w_out.w, fc.logits);
    add_bias(fc.logits, b_out);
  }

  // Cross-entropy over all positions; fills dlogits (same shape as logits).
  float loss_and_dlogits(const ForwardCache& fc,
                         const std::vector<int>& targets, Mat& dlogits) const {
    const int s = fc.logits.rows;
    const int v = cfg.vocab_size;
    LEJIT_ASSERT(static_cast<int>(targets.size()) == s,
                 "targets/positions mismatch");
    dlogits = Mat(s, v);
    double loss = 0.0;
    const float inv_s = 1.0f / static_cast<float>(s);
    for (int t = 0; t < s; ++t) {
      const float* lt = fc.logits.row(t);
      float maxv = -1e30f;
      for (int i = 0; i < v; ++i) maxv = std::max(maxv, lt[i]);
      double total = 0.0;
      for (int i = 0; i < v; ++i)
        total += std::exp(static_cast<double>(lt[i] - maxv));
      const int y = targets[static_cast<std::size_t>(t)];
      loss += -(static_cast<double>(lt[y] - maxv) - std::log(total));
      float* dt = dlogits.row(t);
      for (int i = 0; i < v; ++i) {
        const float p = static_cast<float>(
            std::exp(static_cast<double>(lt[i] - maxv)) / total);
        dt[i] = (p - (i == y ? 1.0f : 0.0f)) * inv_s;
      }
    }
    return static_cast<float>(loss / s);
  }

  void backward(const ForwardCache& fc, const Mat& dlogits) {
    const int s = fc.logits.rows;
    const int d = cfg.d_model;
    const int nh = cfg.n_heads;
    const int dh = d / nh;
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

    // Output head.
    Mat d_lnf_out;
    matmul_tB(dlogits, w_out.w, d_lnf_out);
    matmul_tA_accum(fc.lnf_out, dlogits, w_out.g);
    bias_grad(dlogits, b_out);

    Mat dx(s, d);
    ln_backward(d_lnf_out, fc.lnf, lnf_g, lnf_b, dx);

    for (int li = cfg.n_layers - 1; li >= 0; --li) {
      LayerParams& lp = layers[static_cast<std::size_t>(li)];
      const LayerCache& lc = fc.layers[static_cast<std::size_t>(li)];

      // MLP branch: dx is gradient at the layer output (x_mid + mlp_out).
      Mat& d_mlp_out = dx;  // alias: same gradient flows into the branch
      Mat d_fc1_act;
      matmul_tB(d_mlp_out, lp.w_fc2.w, d_fc1_act);
      matmul_tA_accum(lc.fc1_act, d_mlp_out, lp.w_fc2.g);
      bias_grad(d_mlp_out, lp.b_fc2);
      for (std::size_t i = 0; i < d_fc1_act.data.size(); ++i)
        d_fc1_act.data[i] *= gelu_grad(lc.fc1_pre.data[i]);
      Mat d_ln2_out;
      matmul_tB(d_fc1_act, lp.w_fc1.w, d_ln2_out);
      matmul_tA_accum(lc.ln2_out, d_fc1_act, lp.w_fc1.g);
      bias_grad(d_fc1_act, lp.b_fc1);

      Mat d_x_mid = dx;  // residual path
      ln_backward(d_ln2_out, lc.ln2, lp.ln2_g, lp.ln2_b, d_x_mid);

      // Attention branch: d_x_mid is gradient at (x_in + attn_out).
      Mat d_ctx;
      matmul_tB(d_x_mid, lp.w_o.w, d_ctx);
      matmul_tA_accum(lc.ctx, d_x_mid, lp.w_o.g);
      bias_grad(d_x_mid, lp.b_o);

      Mat d_qkv(s, 3 * d);
      for (int h = 0; h < nh; ++h) {
        const Mat& att = lc.att[static_cast<std::size_t>(h)];
        const int qo = h * dh, ko = d + h * dh, vo = 2 * d + h * dh;
        // datt[t,u] = dctx_h[t]·V_h[u];   dV_h[u] += att[t,u]·dctx_h[t]
        Mat datt(s, s);
        for (int t = 0; t < s; ++t) {
          const float* dct = d_ctx.row(t) + qo;
          float* dat = datt.row(t);
          for (int u = 0; u <= t; ++u) {
            const float* vu = lc.qkv.row(u) + vo;
            float acc = 0.0f;
            for (int i = 0; i < dh; ++i) acc += dct[i] * vu[i];
            dat[u] = acc;
            float* dvu = d_qkv.row(u) + vo;
            const float a = att.at(t, u);
            for (int i = 0; i < dh; ++i) dvu[i] += a * dct[i];
          }
        }
        // Softmax backward per row, then into Q and K.
        for (int t = 0; t < s; ++t) {
          const float* at = att.row(t);
          const float* dat = datt.row(t);
          float dot = 0.0f;
          for (int u = 0; u <= t; ++u) dot += at[u] * dat[u];
          const float* qt = lc.qkv.row(t) + qo;
          float* dqt = d_qkv.row(t) + qo;
          for (int u = 0; u <= t; ++u) {
            const float ds = at[u] * (dat[u] - dot) * scale;
            if (ds == 0.0f) continue;
            const float* ku = lc.qkv.row(u) + ko;
            float* dku = d_qkv.row(u) + ko;
            for (int i = 0; i < dh; ++i) {
              dqt[i] += ds * ku[i];
              dku[i] += ds * qt[i];
            }
          }
        }
      }

      Mat d_ln1_out;
      matmul_tB(d_qkv, lp.w_qkv.w, d_ln1_out);
      matmul_tA_accum(lc.ln1_out, d_qkv, lp.w_qkv.g);
      bias_grad(d_qkv, lp.b_qkv);

      Mat d_x_in = d_x_mid;  // residual path
      ln_backward(d_ln1_out, lc.ln1, lp.ln1_g, lp.ln1_b, d_x_in);
      dx = std::move(d_x_in);
    }

    // Embeddings.
    for (int t = 0; t < s; ++t) {
      const float* dxt = dx.row(t);
      float* de = tok_emb.g.row(fc.ids[static_cast<std::size_t>(t)]);
      float* dp = pos_emb.g.row(t);
      for (int i = 0; i < d; ++i) {
        de[i] += dxt[i];
        dp[i] += dxt[i];
      }
    }
  }

  void adam_step(const AdamConfig& a) {
    ++adam_t;
    const auto params = all_params();

    if (a.grad_clip > 0.0f) {
      double norm_sq = 0.0;
      for (const Param* p : params)
        for (const float g : p->g.data) norm_sq += static_cast<double>(g) * g;
      const double norm = std::sqrt(norm_sq);
      if (norm > a.grad_clip) {
        const float scale = static_cast<float>(a.grad_clip / norm);
        for (Param* p : params)
          for (float& g : p->g.data) g *= scale;
      }
    }

    const float bc1 =
        1.0f - std::pow(a.beta1, static_cast<float>(adam_t));
    const float bc2 =
        1.0f - std::pow(a.beta2, static_cast<float>(adam_t));
    for (Param* p : params) {
      for (std::size_t i = 0; i < p->w.data.size(); ++i) {
        const float g = p->g.data[i];
        p->m.data[i] = a.beta1 * p->m.data[i] + (1.0f - a.beta1) * g;
        p->v.data[i] = a.beta2 * p->v.data[i] + (1.0f - a.beta2) * g * g;
        const float mhat = p->m.data[i] / bc1;
        const float vhat = p->v.data[i] / bc2;
        float update = mhat / (std::sqrt(vhat) + a.eps);
        if (p->decay) update += a.weight_decay * p->w.data[i];
        p->w.data[i] -= a.lr * update;
      }
    }
  }

  void zero_grads() {
    for (Param* p : all_params()) p->g.zero();
  }

  // Zeroes the gradients, then accumulates those of the mean next-token loss
  // over `rows`; returns that mean loss.
  float accumulate_gradients(std::span<const std::vector<int>> rows) {
    zero_grads();
    double total_loss = 0.0;
    std::vector<int> ids, targets;
    for (const auto& row : rows) {
      make_training_pair(row, cfg.max_seq, cfg.vocab_size, ids, targets);
      ForwardCache fc;
      forward(ids, fc);
      Mat dlogits;
      total_loss += loss_and_dlogits(fc, targets, dlogits);
      // Scale gradient by 1/batch for a mean-loss step.
      const float inv_b = 1.0f / static_cast<float>(rows.size());
      for (float& g : dlogits.data) g *= inv_b;
      backward(fc, dlogits);
    }
    return static_cast<float>(total_loss / static_cast<double>(rows.size()));
  }
};

namespace {

// Columns [j, j + 4 * sizeof...(K)) of one row of batch_vec_matmul, summed in
// sizeof...(K) vector registers. The pack expansions are unrolled by
// construction, so acc[] lives in registers; written as loops over K, GCC at
// -O2 keeps it on the stack.
template <std::size_t... K>
void linear_tile(const float* in, const Mat& w, const float* bias, int j,
                 float* out, std::index_sequence<K...>) {
  V4 acc[] = {load4(bias + j + 4 * K)...};
  for (int i = 0; i < w.rows; ++i) {
    const float vi = in[i];
    if (vi == 0.0f) continue;
    const float* wr = w.row(i) + j;
    ((acc[K] += vi * load4(wr + 4 * K)), ...);
  }
  (store4(out + j + 4 * K, acc[K]), ...);
}

// The inference linear kernel: columns [j, end) of out = in · W + b, one
// row of out per row of in, W (m×n) row-major. Each out[r][j] starts from
// the bias and adds in[r][i] * W[i][j] in ascending i, skipping
// in[r][i] == 0, whatever the other rows and columns; that is what keeps a
// position's logits independent of how many positions its call processes.
// The per-element arithmetic is fixed (DESIGN.md §13.3); only the schedule
// below is free.
//
// W is walked in strips of 32 columns, then 16, then 4, then single columns.
// A strip stays in L1 while every row walks it, and each row keeps the
// strip's sums in vector registers over all m inputs: eight independent
// accumulators for a 32-column strip, so an input index is not bound by the
// latency of one add chain, and the inner loop stores nothing.
//
// Training keeps its own linear kernel, matmul() then add_bias(), which adds
// the bias last. Float addition is not associative, so merging the two would
// change the bytes of either every trained checkpoint or every decoded row.
void batch_vec_matmul(const Mat& in, const Mat& w, const Param& b, Mat& out,
                      int j, int end) {
  const float* bias = b.w.data.data();
  const auto strips = [&]<std::size_t... K>(std::index_sequence<K...> tile) {
    constexpr int width = 4 * static_cast<int>(sizeof...(K));
    for (; j + width <= end; j += width)
      for (int r = 0; r < in.rows; ++r)
        linear_tile(in.row(r), w, bias, j, out.row(r), tile);
  };
  strips(std::make_index_sequence<8>{});
  strips(std::make_index_sequence<4>{});
  strips(std::make_index_sequence<1>{});
  for (; j < end; ++j) {
    for (int r = 0; r < in.rows; ++r) {
      const float* x = in.row(r);
      float a = bias[j];
      for (int i = 0; i < w.rows; ++i)
        if (x[i] != 0.0f) a += x[i] * w.row(i)[j];
      out.row(r)[j] = a;
    }
  }
}

// Every column of out.
void batch_vec_matmul(const Mat& in, const Mat& w, const Param& b, Mat& out) {
  batch_vec_matmul(in, w, b, out, 0, w.cols);
}

// Longest common prefix between the cache and `ids`, with the last token
// always reprocessed so the query position's residual stream is available.
// Rebinds the cache to `ids` and returns the number of reused positions.
std::size_t kv_common_prefix(KvCache& kv, const std::vector<int>& ids) {
  std::size_t common = 0;
  while (common < kv.ids.size() && common < ids.size() &&
         kv.ids[common] == ids[common])
    ++common;
  if (common == ids.size()) --common;
  kv.ids.assign(ids.begin(), ids.end());
  return common;
}

// lm.kv.* efficiency counters: `reused` positions served from the cache and
// `recomputed` positions paid in full. Below the context window the ratio is
// ~ctx:1 per step; once the sliding window engages, reuse collapses to the
// START token alone and every step reprocesses the remaining max_seq-1
// window positions (see Transformer::logits docs).
void record_kv_counters(std::int64_t reused, std::int64_t recomputed) {
  if (!obs::metrics_enabled()) return;
  auto& registry = obs::MetricsRegistry::instance();
  static obs::Counter& c_reused = registry.counter("lm.kv.reused_tokens");
  static obs::Counter& c_recomputed =
      registry.counter("lm.kv.recomputed_tokens");
  c_reused.add(reused);
  c_recomputed.add(recomputed);
}

// Nonzero per-thread fingerprint for the logits() reentrancy guard.
std::uint64_t thread_fingerprint() noexcept {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) | 1u;
}

// Owns the internal-cache critical section. Overlapping entry from a second
// thread is a programming error that would silently corrupt the KV cache
// (and with it, decoded text), so it aborts loudly instead — a release-mode
// assertion cheap enough (two uncontended atomics per forward) to always be
// on.
class ReentrancyGuard {
 public:
  explicit ReentrancyGuard(std::atomic<std::uint64_t>& owner) : owner_(owner) {
    std::uint64_t expected = 0;
    if (!owner_.compare_exchange_strong(expected, thread_fingerprint(),
                                        std::memory_order_acquire)) {
      std::fprintf(
          stderr,
          "lejit fatal: Transformer::logits() entered concurrently from two "
          "threads; the internal KV cache is not thread-safe. Give each "
          "thread its own lm::TransformerSession (or KvCache overload) "
          "instead of sharing one model instance.\n");
      std::abort();
    }
  }
  ~ReentrancyGuard() { owner_.store(0, std::memory_order_release); }

  ReentrancyGuard(const ReentrancyGuard&) = delete;
  ReentrancyGuard& operator=(const ReentrancyGuard&) = delete;

 private:
  std::atomic<std::uint64_t>& owner_;
};

}  // namespace

void Transformer::Impl::ensure_cache_shape(KvCache& kv) const {
  const int d = cfg.d_model;
  if (kv.k.empty()) {
    kv.k.assign(static_cast<std::size_t>(cfg.n_layers), Mat(cfg.max_seq, d));
    kv.v.assign(static_cast<std::size_t>(cfg.n_layers), Mat(cfg.max_seq, d));
    return;
  }
  LEJIT_REQUIRE(kv.k.size() == static_cast<std::size_t>(cfg.n_layers) &&
                    kv.k[0].rows == cfg.max_seq && kv.k[0].cols == d,
                "KvCache was sized for a different model");
}

// Every new position is one row of a block: positions pos .. ids.size() - 1
// are rows 0 .. rows - 1, in ascending order. Each layer runs its four
// weight matmuls once over the whole block; LayerNorm, GELU and the
// residuals run per row. Every new position appends its K and V rows to the
// cache, and then each attends over its causal prefix there.
//
// Only the last position reaches the head, and the cache keeps only K and
// V, so the final layer needs the rest at that position alone: its qkv
// matmul computes the K and V columns over the block, and after the append
// the block shrinks to the last row, where the Q columns, attention,
// out-projection, MLP, the final LayerNorm and the head run. No operation
// mixes two rows' values, so the logits do not depend on how many positions
// are new.
std::vector<float> Transformer::Impl::decode_logits(const std::vector<int>& ids,
                                                    KvCache& kv) const {
  const int d = cfg.d_model;
  const int nh = cfg.n_heads;
  const int dh = d / nh;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

  ensure_cache_shape(kv);
  int pos = static_cast<int>(kv_common_prefix(kv, ids));
  int rows = static_cast<int>(ids.size()) - pos;
  record_kv_counters(pos, rows);

  Mat x(rows, d);
  Mat norm(rows, d);
  Mat qkv(rows, 3 * d);
  Mat ctx(rows, d);
  Mat branch(rows, d);
  Mat ff(rows, cfg.d_ff);
  std::vector<float> att(static_cast<std::size_t>(cfg.max_seq));

  // Row r holds position pos + r.
  for (int r = 0; r < rows; ++r) {
    const float* e = tok_emb.w.row(ids[static_cast<std::size_t>(pos + r)]);
    const float* p = pos_emb.w.row(pos + r);
    float* xr = x.row(r);
    for (int i = 0; i < d; ++i) xr[i] = e[i] + p[i];
  }

  const auto layer_norm_rows = [&](const Param& gamma, const Param& beta) {
    for (int r = 0; r < rows; ++r)
      layer_norm(x.row(r), gamma, beta, d, norm.row(r));
  };
  const auto add_branch = [&] {
    for (std::size_t i = 0; i < x.data.size(); ++i) x.data[i] += branch.data[i];
  };
  // Row 0 becomes the last position, and the block shrinks to that row.
  const auto keep_last_row = [&] {
    std::copy_n(x.row(rows - 1), d, x.row(0));
    std::copy_n(norm.row(rows - 1), d, norm.row(0));
    pos += rows - 1;
    rows = 1;
    for (Mat* m : {&x, &norm, &qkv, &ctx, &branch, &ff}) {
      m->rows = rows;
      m->data.resize(static_cast<std::size_t>(m->cols));
    }
  };

  for (std::size_t li = 0; li < layers.size(); ++li) {
    const LayerParams& lp = layers[li];
    const bool final_layer = li + 1 == layers.size();

    layer_norm_rows(lp.ln1_g, lp.ln1_b);
    batch_vec_matmul(norm, lp.w_qkv.w, lp.b_qkv, qkv, final_layer ? d : 0,
                     3 * d);
    for (int r = 0; r < rows; ++r) {
      const float* qr = qkv.row(r);
      std::copy(qr + d, qr + 2 * d, kv.k[li].row(pos + r));
      std::copy(qr + 2 * d, qr + 3 * d, kv.v[li].row(pos + r));
    }
    if (final_layer) {
      keep_last_row();
      batch_vec_matmul(norm, lp.w_qkv.w, lp.b_qkv, qkv, 0, d);
    }
    const Mat& kc = kv.k[li];
    const Mat& vc = kv.v[li];
    for (int r = 0; r < rows; ++r)
      for (int h = 0; h < nh; ++h)
        attend(qkv.row(r) + h * dh, kc.row(0) + h * dh, vc.row(0) + h * dh,
               static_cast<std::size_t>(d), pos + r + 1, dh, scale, att.data(),
               ctx.row(r) + h * dh);
    batch_vec_matmul(ctx, lp.w_o.w, lp.b_o, branch);
    add_branch();

    layer_norm_rows(lp.ln2_g, lp.ln2_b);
    batch_vec_matmul(norm, lp.w_fc1.w, lp.b_fc1, ff);
    for (float& f : ff.data) f = gelu(f);
    batch_vec_matmul(ff, lp.w_fc2.w, lp.b_fc2, branch);
    add_branch();
  }

  layer_norm_rows(lnf_g, lnf_b);
  Mat logits(rows, cfg.vocab_size);
  batch_vec_matmul(norm, w_out.w, b_out, logits);
  return std::move(logits.data);
}

namespace {

// Whether a config describes a model: every dimension positive, a window of
// at least two positions, and n_heads dividing d_model.
bool dimensions_valid(const TransformerConfig& c) {
  return c.vocab_size > 0 && c.d_model > 0 && c.n_layers > 0 &&
         c.n_heads > 0 && c.d_ff > 0 && c.max_seq > 1 &&
         c.d_model % c.n_heads == 0;
}

}  // namespace

Transformer::Transformer(TransformerConfig config, util::Rng& rng)
    : config_(config), impl_(std::make_unique<Impl>()) {
  LEJIT_REQUIRE(dimensions_valid(config),
                "transformer dimensions must be positive, max_seq must "
                "exceed 1 and n_heads must divide d_model");
  impl_->cfg = config;
  impl_->init(rng);
}

Transformer::~Transformer() = default;
Transformer::Transformer(Transformer&&) noexcept = default;
Transformer& Transformer::operator=(Transformer&&) noexcept = default;

std::size_t Transformer::num_parameters() const noexcept {
  std::size_t n = 0;
  for (const Param* p : impl_->all_params()) n += p->w.size();
  return n;
}

namespace {

// START-prefixed, range-checked input ids, windowed to the last max_seq-1
// context tokens — the shared front half of every inference path.
std::vector<int> window_context(const TransformerConfig& cfg,
                                std::span<const int> context) {
  const int start_id = cfg.vocab_size;
  const std::size_t keep =
      std::min(context.size(), static_cast<std::size_t>(cfg.max_seq - 1));
  std::vector<int> ids;
  ids.reserve(keep + 1);
  ids.push_back(start_id);
  for (std::size_t i = context.size() - keep; i < context.size(); ++i) {
    const int t = context[i];
    LEJIT_REQUIRE(t >= 0 && t < cfg.vocab_size, "token id out of range");
    ids.push_back(t);
  }
  return ids;
}

void record_forward(std::int64_t t0) {
  auto& registry = obs::MetricsRegistry::instance();
  static obs::Counter& c_forwards = registry.counter("lm.transformer.forwards");
  static obs::Histogram& h_latency =
      registry.histogram("lm.transformer.forward_latency_us");
  c_forwards.inc();
  h_latency.observe(static_cast<double>(obs::now_ns() - t0) * 1e-3);
}

}  // namespace

std::vector<float> Transformer::logits(std::span<const int> context) const {
  const ReentrancyGuard guard(impl_->logits_owner);
  return logits(context, impl_->cache);
}

std::vector<float> Transformer::logits(std::span<const int> context,
                                       KvCache& cache) const {
  fault::inject(fault::Site::kLmForward);
  const bool obs_on = obs::metrics_enabled();
  const std::int64_t t0 = obs_on ? obs::now_ns() : 0;
  const std::vector<int> ids = window_context(config_, context);
  std::vector<float> out = impl_->decode_logits(ids, cache);
  if (obs_on) record_forward(t0);
  return out;
}

float Transformer::train_batch(std::span<const std::vector<int>> batch,
                               const AdamConfig& adam) {
  LEJIT_REQUIRE(!batch.empty(), "empty training batch");
  const float loss = impl_->accumulate_gradients(batch);
  impl_->adam_step(adam);
  impl_->invalidate_cache();
  return loss;
}

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x4C654A54;  // "LeJT"
constexpr std::uint32_t kCheckpointVersion = 1;

// Number of parameters a valid config implies, in 128 bits so that no
// header's dimensions can wrap around to a plausible count.
unsigned __int128 parameter_count(const TransformerConfig& c) {
  using U128 = unsigned __int128;
  const U128 v = static_cast<U128>(c.vocab_size);
  const U128 d = static_cast<U128>(c.d_model);
  const U128 f = static_cast<U128>(c.d_ff);
  // ln1, qkv, out-proj, ln2, fc1 and fc2, weights and biases.
  const U128 per_layer = 4 * d * d + 2 * d * f + 9 * d + f;
  // Embeddings, final LayerNorm and output head, then the layers.
  return (v + 1) * d + static_cast<U128>(c.max_seq) * d + 2 * d + d * v + v +
         static_cast<U128>(c.n_layers) * per_layer;
}

}  // namespace

void Transformer::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out)
    throw util::RuntimeError("cannot open checkpoint for write: " + path);
  const auto put_u32 = [&](std::uint32_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put_u32(kCheckpointMagic);
  put_u32(kCheckpointVersion);
  for (const int v : {config_.vocab_size, config_.d_model, config_.n_layers,
                      config_.n_heads, config_.d_ff, config_.max_seq})
    put_u32(static_cast<std::uint32_t>(v));
  const std::vector<float> flat = parameters_flat();
  put_u32(static_cast<std::uint32_t>(flat.size()));
  out.write(reinterpret_cast<const char*>(flat.data()),
            static_cast<std::streamsize>(flat.size() * sizeof(float)));
  if (!out) throw util::RuntimeError("checkpoint write failed: " + path);
}

Transformer Transformer::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw util::RuntimeError("cannot open checkpoint: " + path);
  const auto get_u32 = [&]() {
    std::uint32_t v = 0;
    in.read(reinterpret_cast<char*>(&v), sizeof(v));
    return v;
  };
  if (get_u32() != kCheckpointMagic)
    throw util::RuntimeError("not a LeJIT checkpoint: " + path);
  if (get_u32() != kCheckpointVersion)
    throw util::RuntimeError("unsupported checkpoint version: " + path);
  TransformerConfig cfg;
  for (int* field : {&cfg.vocab_size, &cfg.d_model, &cfg.n_layers,
                     &cfg.n_heads, &cfg.d_ff, &cfg.max_seq})
    *field = static_cast<int>(get_u32());
  const std::uint32_t count = get_u32();
  if (!in) throw util::RuntimeError("truncated checkpoint header: " + path);
  // Check the header before allocating anything it sizes: valid dimensions,
  // the parameter count they imply, and exactly that many floats after it.
  if (!dimensions_valid(cfg))
    throw util::RuntimeError("invalid checkpoint dimensions: " + path);
  if (parameter_count(cfg) != count)
    throw util::RuntimeError("checkpoint parameter count does not match its "
                             "dimensions: " + path);
  const std::streampos body = in.tellg();
  in.seekg(0, std::ios::end);
  if (in.tellg() - body != static_cast<std::streamoff>(sizeof(float)) * count)
    throw util::RuntimeError("checkpoint size does not match its header: " +
                             path);
  in.seekg(body);
  util::Rng init_rng(0);
  Transformer model(cfg, init_rng);
  std::vector<float> flat(count);
  in.read(reinterpret_cast<char*>(flat.data()),
          static_cast<std::streamsize>(flat.size() * sizeof(float)));
  if (!in) throw util::RuntimeError("truncated checkpoint: " + path);
  model.set_parameters_flat(flat);
  return model;
}

std::vector<float> Transformer::parameters_flat() const {
  std::vector<float> flat;
  for (const Param* p : impl_->all_params())
    flat.insert(flat.end(), p->w.data.begin(), p->w.data.end());
  return flat;
}

void Transformer::set_parameters_flat(std::span<const float> flat) {
  std::size_t offset = 0;
  for (Param* p : impl_->all_params()) {
    LEJIT_REQUIRE(offset + p->w.size() <= flat.size(),
                  "flat parameter vector too short");
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(offset),
              flat.begin() + static_cast<std::ptrdiff_t>(offset + p->w.size()),
              p->w.data.begin());
    offset += p->w.size();
  }
  LEJIT_REQUIRE(offset == flat.size(), "flat parameter vector size mismatch");
  impl_->invalidate_cache();
}

std::pair<float, std::vector<float>> Transformer::loss_and_gradient(
    std::span<const std::vector<int>> rows) {
  LEJIT_REQUIRE(!rows.empty(), "empty gradient batch");
  const float loss = impl_->accumulate_gradients(rows);
  std::vector<float> grad;
  for (const Param* p : impl_->all_params())
    grad.insert(grad.end(), p->g.data.begin(), p->g.data.end());
  return {loss, std::move(grad)};
}

float Transformer::evaluate(std::span<const std::vector<int>> rows) const {
  LEJIT_REQUIRE(!rows.empty(), "empty evaluation set");
  double total = 0.0;
  std::vector<int> ids, targets;
  for (const auto& row : rows) {
    make_training_pair(row, config_.max_seq, config_.vocab_size, ids, targets);
    ForwardCache fc;
    impl_->forward(ids, fc);
    Mat dlogits;
    total += impl_->loss_and_dlogits(fc, targets, dlogits);
  }
  return static_cast<float>(total / static_cast<double>(rows.size()));
}

}  // namespace lejit::lm
