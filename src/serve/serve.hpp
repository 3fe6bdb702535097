// lejit::serve — the long-lived decode service (DESIGN.md §13).
//
// Turns the one-shot decode workflow into a serving runtime: a bounded
// request queue feeds workers * batch pool-allocated DecodeSessions, one
// thread each, decoding rows independently. The expensive immutable state —
// model weights, tokenizer, compiled decode plan, static lint hulls, backend
// configuration — is loaded once and shared read-only by every session;
// each session owns only its cheap per-row state (decoder walk + feasibility
// cache, solver scopes, RNG, private KV cache) and runs its own LM forwards
// through that cache, never waiting on another session.
//
// Determinism contract: row i of a run() call is decoded with the RNG
// derived from (seed, i) by core::row_rng, and a session's logits depend
// only on its own context, so serve output for a fixed (seed, prompts) pair
// is bit-identical to a sequential per-row decode, independent of worker
// count, sessions per worker, queue order, and thread scheduling.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "core/decoder.hpp"
#include "lm/tokenizer.hpp"
#include "lm/transformer.hpp"
#include "serve/queue.hpp"

namespace lejit::serve {

struct ServeConfig {
  // The server runs workers * batch independent sessions, one thread each;
  // `batch` is the number of sessions per worker.
  int workers = 1;
  int batch = 4;
  // Admission queue bound: submissions beyond this backpressure the caller.
  std::size_t queue_capacity = 1024;
  // Row RNG seed (core::row_rng derivation).
  std::uint64_t seed = 1;
};

struct ServeStats {
  std::uint64_t rows = 0;            // rows decoded across all run() calls
  std::uint64_t degraded_rows = 0;   // rows whose generate() threw (kFault)
  // LM forwards of the delivered rows (Σ DecodeStats::lm_calls). Every
  // session runs its own forwards, so the two counts are always equal.
  std::uint64_t batched_forwards = 0;
  std::uint64_t forwarded_contexts = 0;
};

// One pooled decode session: a GuidedDecoder over its own
// lm::TransformerSession, i.e. a private KV cache on the shared model.
// Sessions are allocated once at server start and reused for every row they
// pull off the queue — per-row cost is just the decoder's walk reset, not
// solver or model setup.
class DecodeSession {
 public:
  DecodeSession(const lm::Transformer& model,
                const lm::CharTokenizer& tokenizer,
                const telemetry::RowLayout& layout, rules::RuleSet rules,
                const core::DecoderConfig& config);

  DecodeSession(const DecodeSession&) = delete;
  DecodeSession& operator=(const DecodeSession&) = delete;

  core::DecodeResult decode(util::Rng& rng, std::string_view prompt) {
    return decoder_.generate(rng, prompt);
  }

  lm::KvCache& cache() noexcept { return model_.cache(); }

 private:
  lm::TransformerSession model_;  // must outlive decoder_ (declared first)
  core::GuidedDecoder decoder_;
};

class Server {
 public:
  // Shares `model` and `tokenizer` (borrowed; must outlive the server)
  // across all sessions, and hands every session `decoder_config`, its
  // compiled decode plan included. Construction builds all workers * batch
  // sessions, starts their threads and pins them round robin over the CPUs
  // the process may use.
  Server(const lm::Transformer& model, const lm::CharTokenizer& tokenizer,
         const telemetry::RowLayout& layout, rules::RuleSet rules,
         core::DecoderConfig decoder_config, ServeConfig config);
  ~Server();  // closes the queue and joins all session threads

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Decode one row per prompt (empty prompt = synthesis) and return results
  // in input order. Synchronous; may be called repeatedly — sessions, caches
  // and plan survive across calls. Rows are numbered from 0 per call, so a
  // run() with the same (seed, prompts) always returns the same rows.
  // A row whose decode throws is reported degraded (FailReason::kFault)
  // rather than taking the run down.
  std::vector<core::DecodeResult> run(std::span<const std::string> prompts);

  ServeStats stats() const;
  const ServeConfig& config() const noexcept { return config_; }

 private:
  struct RunState;
  struct Job {
    std::size_t row = 0;
    // Shared, not borrowed: the session thread's copy keeps the run's
    // prompts and condition variable alive through the final
    // deliver()/notify_all even after run() has already returned — or
    // unwound early on a concurrently closed queue.
    std::shared_ptr<RunState> run;
  };

  void session_main(DecodeSession& session);

  ServeConfig config_;
  BoundedQueue<Job> queue_;
  std::vector<std::unique_ptr<DecodeSession>> sessions_;
  std::atomic<std::uint64_t> rows_{0};
  std::atomic<std::uint64_t> degraded_rows_{0};
  std::atomic<std::uint64_t> forwards_{0};
  std::vector<std::thread> threads_;  // last: the threads use every member
};

}  // namespace lejit::serve
