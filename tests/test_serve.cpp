// lejit::serve — the serving runtime (DESIGN.md §13).
//
// The load-bearing property under test is the determinism contract: serve
// output for a fixed (seed, prompts) pair is bit-identical to a sequential
// per-row decode, independent of worker count, sessions per worker, and
// scheduling.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "fault/fault.hpp"
#include "plan/plan.hpp"
#include "rules/checker.hpp"
#include "rules/miner.hpp"
#include "serve/queue.hpp"
#include "serve/serve.hpp"
#include "telemetry/generator.hpp"
#include "telemetry/text.hpp"

namespace lejit::serve {
namespace {

using telemetry::Window;

// --- BoundedQueue ------------------------------------------------------------

TEST(BoundedQueue, FifoAndDrainAfterClose) {
  BoundedQueue<int> q(8);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_EQ(q.size(), 3u);
  q.close();
  // Accepted items survive close(); only then does pop() report end.
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.pop(), std::optional<int>(3));
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedQueue, PushAfterCloseIsRejected) {
  BoundedQueue<int> q(2);
  q.close();
  EXPECT_FALSE(q.push(1));
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedQueue, RejectsZeroCapacity) {
  EXPECT_THROW(BoundedQueue<int>(0), util::PreconditionError);
}

TEST(BoundedQueue, FullQueueBackpressuresTheProducer) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::atomic<bool> second_accepted{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(2));  // blocks until the consumer makes room
    second_accepted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_accepted.load()) << "push must block while full";
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  producer.join();
  EXPECT_TRUE(second_accepted.load());
  EXPECT_EQ(q.pop(), std::optional<int>(2));
}

TEST(BoundedQueue, CloseUnblocksAWaitingProducer) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::thread producer([&] { EXPECT_FALSE(q.push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();
}

// --- serving runtime ---------------------------------------------------------

struct Env {
  telemetry::Dataset dataset;
  telemetry::RowLayout layout;
  lm::CharTokenizer tokenizer{telemetry::row_alphabet()};
  std::unique_ptr<lm::Transformer> model;
  rules::RuleSet mined;
  std::vector<std::string> prompts;  // rules-compatible imputation prompts
};

// A small *untrained* transformer: kFull guided decoding emits compliant
// rows regardless of LM quality, and serve's contract is about scheduling
// and bit-identity, not text quality.
const Env& env() {
  static const Env e = [] {
    Env out;
    out.dataset = telemetry::generate_dataset(telemetry::GeneratorConfig{
        .num_racks = 6, .windows_per_rack = 20, .seed = 99});
    out.layout = telemetry::telemetry_row_layout(out.dataset.limits);
    util::Rng rng(5);
    out.model = std::make_unique<lm::Transformer>(
        lm::TransformerConfig{.vocab_size = out.tokenizer.vocab_size(),
                              .d_model = 32,
                              .n_layers = 2,
                              .n_heads = 2,
                              .d_ff = 48,
                              .max_seq = 64},
        rng);
    const auto windows = telemetry::all_windows(out.dataset);
    out.mined =
        rules::mine_rules(windows, out.layout, out.dataset.limits).rules;
    for (const Window& w : windows)
      if (rules::violated_rules(out.mined, w).empty())
        out.prompts.push_back(telemetry::imputation_prompt(w));
    return out;
  }();
  return e;
}

core::DecoderConfig full_config() {
  return core::DecoderConfig{.mode = core::GuidanceMode::kFull};
}

// The sequential oracle: one decoder, core::row_rng per row — exactly the
// derivation the server uses.
std::vector<core::DecodeResult> sequential_decode(
    const std::vector<std::string>& prompts, std::uint64_t seed,
    const core::DecoderConfig& config = full_config()) {
  core::GuidedDecoder decoder(*env().model, env().tokenizer, env().layout,
                              env().mined, config);
  std::vector<core::DecodeResult> results;
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    util::Rng rng = core::row_rng(seed, i, 0);
    results.push_back(decoder.generate(rng, prompts[i]));
  }
  return results;
}

void expect_identical(const std::vector<core::DecodeResult>& serve_results,
                      const std::vector<core::DecodeResult>& expected,
                      const char* what) {
  ASSERT_EQ(serve_results.size(), expected.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(serve_results[i].text, expected[i].text)
        << what << ": row " << i;
    EXPECT_EQ(serve_results[i].ok, expected[i].ok) << what << ": row " << i;
  }
}

// The fig3-style identity gate from the serving side: 64 synthesis rows
// through a 2x4 server must reproduce the sequential decode bit for bit.
TEST(Serve, SixtyFourRowBitIdentityAgainstSequentialDecode) {
  const std::vector<std::string> prompts(64, std::string());
  const auto expected = sequential_decode(prompts, 13);

  Server server(*env().model, env().tokenizer, env().layout, env().mined,
                full_config(), ServeConfig{.workers = 2, .batch = 4,
                                           .seed = 13});
  const auto results = server.run(prompts);
  expect_identical(results, expected, "serve 2x4");

  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.rows, 64u);
  EXPECT_EQ(stats.degraded_rows, 0u);
  EXPECT_GT(stats.batched_forwards, 0u);
}

TEST(Serve, OutputIndependentOfWorkerAndBatchConfiguration) {
  std::vector<std::string> prompts(env().prompts.begin(),
                                   env().prompts.begin() + 12);
  const auto expected = sequential_decode(prompts, 21);
  for (const auto& [workers, batch] :
       std::vector<std::pair<int, int>>{{1, 1}, {1, 3}, {3, 2}}) {
    Server server(*env().model, env().tokenizer, env().layout, env().mined,
                  full_config(),
                  ServeConfig{.workers = workers, .batch = batch, .seed = 21});
    expect_identical(server.run(prompts), expected, "config sweep");
  }
}

TEST(Serve, ServerIsReusableAcrossRuns) {
  const std::vector<std::string> prompts(10, std::string());
  const auto expected = sequential_decode(prompts, 3);
  Server server(*env().model, env().tokenizer, env().layout, env().mined,
                full_config(),
                ServeConfig{.workers = 1, .batch = 4, .seed = 3});
  // Rows renumber from 0 each run(): two runs of the same prompts must give
  // the same rows twice, with pooled sessions (and their KV caches) reused.
  expect_identical(server.run(prompts), expected, "first run");
  expect_identical(server.run(prompts), expected, "second run");
  EXPECT_EQ(server.stats().rows, 20u);
  EXPECT_EQ(server.run({}).size(), 0u);
}

TEST(Serve, EachSessionRunsItsOwnForwards) {
  const std::vector<std::string> prompts(24, std::string());
  const auto expected = sequential_decode(prompts, 9);
  std::uint64_t expected_forwards = 0;
  for (const core::DecodeResult& r : expected)
    expected_forwards += static_cast<std::uint64_t>(r.stats.lm_calls);

  Server server(*env().model, env().tokenizer, env().layout, env().mined,
                full_config(),
                ServeConfig{.workers = 1, .batch = 4, .seed = 9});
  (void)server.run(prompts);
  const ServeStats stats = server.stats();
  // Four sessions decode side by side, yet no forward serves two of them:
  // every context is its own forward, and the count is exactly the
  // sequential decode's.
  EXPECT_EQ(stats.batched_forwards, stats.forwarded_contexts);
  EXPECT_EQ(stats.batched_forwards, expected_forwards);
}

TEST(Serve, SharedCompiledPlanKeepsDecodesBitIdentical) {
  // One plan, compiled once and handed to every session, must not change
  // decoded text.
  std::vector<std::string> prompts(env().prompts.begin(),
                                   env().prompts.begin() + 6);
  const auto expected = sequential_decode(prompts, 17);
  core::DecoderConfig config = full_config();
  config.plan = plan::compile(env().mined, env().layout);
  Server server(*env().model, env().tokenizer, env().layout, env().mined,
                config,
                ServeConfig{.workers = 2, .batch = 2, .seed = 17});
  expect_identical(server.run(prompts), expected, "shared plan");
}

// A forward that throws (fault injection at lm_forward — the same hook the
// resilience suite arms) degrades only the row of the session that ran it:
// the session marks that row kFault, drops its KV prefix and goes on to its
// next row, so with every forward throwing every row is degraded and run()
// still returns.
TEST(Serve, ThrowingForwardDegradesRowsInsteadOfWedgingTheGroup) {
  const std::vector<std::string> prompts(16, std::string());
  const auto expected = sequential_decode(prompts, 29);
  Server server(*env().model, env().tokenizer, env().layout, env().mined,
                full_config(),
                ServeConfig{.workers = 1, .batch = 4, .seed = 29});
  {
    fault::Plan plan;
    plan.site(fault::Site::kLmForward).p_throw = 1.0;
    const fault::ScopedPlan scoped{plan};
    const auto results = server.run(prompts);  // hangs here on regression
    ASSERT_EQ(results.size(), prompts.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_FALSE(results[i].ok) << "row " << i;
      EXPECT_EQ(results[i].reason, core::FailReason::kFault) << "row " << i;
    }
    EXPECT_EQ(server.stats().degraded_rows, prompts.size());
  }
  // Disarmed, the same session pool (KV caches reset on the faulted rows)
  // must again match the sequential oracle bit for bit.
  expect_identical(server.run(prompts), expected, "after fault storm");
}

// Partial fault rate: a throwing forward degrades only its own row; all
// other rows decode normally, and every surviving row is still bit-identical
// to the sequential decode of that (seed, row) pair.
TEST(Serve, SurvivingRowsStayBitIdenticalUnderInjectedFaults) {
  const std::vector<std::string> prompts(32, std::string());
  const auto expected = sequential_decode(prompts, 41);
  Server server(*env().model, env().tokenizer, env().layout, env().mined,
                full_config(),
                ServeConfig{.workers = 2, .batch = 2, .seed = 41});
  fault::Plan plan;
  plan.site(fault::Site::kLmForward).p_throw = 0.05;
  const fault::ScopedPlan scoped{plan};
  const auto results = server.run(prompts);
  ASSERT_EQ(results.size(), prompts.size());
  std::size_t degraded = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].reason == core::FailReason::kFault) {
      ++degraded;
      EXPECT_FALSE(results[i].ok) << "row " << i;
    } else {
      EXPECT_EQ(results[i].text, expected[i].text) << "row " << i;
      EXPECT_EQ(results[i].ok, expected[i].ok) << "row " << i;
    }
  }
  EXPECT_EQ(server.stats().degraded_rows, degraded);
}

TEST(Serve, RejectsDegenerateConfigs) {
  EXPECT_THROW(Server(*env().model, env().tokenizer, env().layout,
                      env().mined, full_config(),
                      ServeConfig{.workers = 0}),
               util::PreconditionError);
  EXPECT_THROW(Server(*env().model, env().tokenizer, env().layout,
                      env().mined, full_config(),
                      ServeConfig{.batch = 0}),
               util::PreconditionError);
  EXPECT_THROW(Server(*env().model, env().tokenizer, env().layout,
                      env().mined, full_config(),
                      ServeConfig{.queue_capacity = 0}),
               util::PreconditionError);
  // workers * batch past INT_MAX must be rejected before any session is
  // built, not wrap around into a session count the loop never reaches.
  EXPECT_THROW(Server(*env().model, env().tokenizer, env().layout,
                      env().mined, full_config(),
                      ServeConfig{.workers = 65536, .batch = 65536}),
               util::PreconditionError);
}

// --- per-row RNG derivation --------------------------------------------------

TEST(RowRng, DeterministicAndDistinctAcrossRowsAndAttempts) {
  util::Rng a = core::row_rng(42, 7, 0);
  util::Rng b = core::row_rng(42, 7, 0);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  // Different rows / attempts / seeds must diverge immediately — neighbors
  // re-rolling the same stream would decode identical rows.
  EXPECT_NE(core::row_rng(42, 7, 0).next_u64(),
            core::row_rng(42, 8, 0).next_u64());
  EXPECT_NE(core::row_rng(42, 7, 0).next_u64(),
            core::row_rng(42, 7, 1).next_u64());
  EXPECT_NE(core::row_rng(42, 7, 0).next_u64(),
            core::row_rng(43, 7, 0).next_u64());
}

}  // namespace
}  // namespace lejit::serve
