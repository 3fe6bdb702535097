// Serve / shared-model concurrency stress (ctest label `stress`; the CI
// tsan job runs this binary under ThreadSanitizer via the stress-tsan
// preset).
//
// Two hazards are pinned here:
//   1. Sharing ONE Transformer instance across decoder threads races its
//      internal KV cache. The ReentrancyGuard on Transformer::logits()
//      must catch that misuse deterministically — abort with a message
//      naming the fix — instead of silently corrupting decoded text.
//   2. The serve runtime (queue + session pool, each session with its own
//      KV cache on the shared model) must stay data-race-free and
//      bit-identical to sequential decode under maximum contention: more
//      runnable session threads than cores, repeated run() reuse, sessions
//      finishing their rows at different times.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "core/decoder.hpp"
#include "rules/miner.hpp"
#include "serve/serve.hpp"
#include "telemetry/generator.hpp"
#include "telemetry/text.hpp"

namespace lejit::serve {
namespace {

struct Env {
  telemetry::Dataset dataset;
  telemetry::RowLayout layout;
  lm::CharTokenizer tokenizer{telemetry::row_alphabet()};
  std::unique_ptr<lm::Transformer> model;
  rules::RuleSet mined;
};

const Env& env() {
  static const Env e = [] {
    Env out;
    out.dataset = telemetry::generate_dataset(telemetry::GeneratorConfig{
        .num_racks = 4, .windows_per_rack = 12, .seed = 31});
    out.layout = telemetry::telemetry_row_layout(out.dataset.limits);
    util::Rng rng(8);
    out.model = std::make_unique<lm::Transformer>(
        lm::TransformerConfig{.vocab_size = out.tokenizer.vocab_size(),
                              .d_model = 16,
                              .n_layers = 2,
                              .n_heads = 2,
                              .d_ff = 24,
                              .max_seq = 48},
        rng);
    const auto windows = telemetry::all_windows(out.dataset);
    out.mined =
        rules::mine_rules(windows, out.layout, out.dataset.limits).rules;
    return out;
  }();
  return e;
}

core::DecoderConfig full_config() {
  return core::DecoderConfig{.mode = core::GuidanceMode::kFull};
}

// Hazard 1: decoders on several threads over ONE shared Transformer hand
// every thread the same internal KV cache. The guard must turn that race
// into a deterministic abort pointing at TransformerSession, the per-thread
// view every serve session decodes through.
TEST(ServeStressDeathTest, SharedTransformerAcrossBatchWorkersAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        // Plenty of rows on several threads: each decode step calls
        // logits(), so overlapping entry is immediate and the guard fires
        // long before the rows complete.
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < 4; ++t)
          threads.emplace_back([t] {
            core::GuidedDecoder decoder(*env().model, env().tokenizer,
                                        env().layout, env().mined,
                                        full_config());
            for (std::size_t i = 0; i < 8; ++i) {
              util::Rng rng = core::row_rng(1, 8 * t + i, 0);
              (void)decoder.generate(rng, "");
            }
          });
        for (std::thread& thread : threads) thread.join();
      },
      "entered concurrently");
}

// Hazard 2: oversubscribed serve under tsan. 16 session threads on a small
// machine, two back-to-back runs reusing the same pool, output compared to
// the sequential oracle both times.
TEST(ServeStress, OversubscribedServerStaysBitIdenticalAcrossRuns) {
  const std::vector<std::string> prompts(48, std::string());

  core::GuidedDecoder reference(*env().model, env().tokenizer, env().layout,
                                env().mined, full_config());
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    util::Rng rng = core::row_rng(19, i, 0);
    expected.push_back(reference.generate(rng, prompts[i]).text);
  }

  Server server(*env().model, env().tokenizer, env().layout, env().mined,
                full_config(),
                ServeConfig{.workers = 4, .batch = 4, .queue_capacity = 8,
                            .seed = 19});
  for (int run = 0; run < 2; ++run) {
    const auto results = server.run(prompts);
    ASSERT_EQ(results.size(), expected.size()) << "run " << run;
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(results[i].text, expected[i])
          << "run " << run << " row " << i;
  }
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.rows, 96u);
  EXPECT_EQ(stats.degraded_rows, 0u);
}

}  // namespace
}  // namespace lejit::serve
