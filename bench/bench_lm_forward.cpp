// Per-shape microbenchmark of the nano-GPT inference forward.
//
// The model is randomly initialised at perfbench's dimensions (vocab 19,
// d_model 64, 2 layers, 4 heads, d_ff 128, max_seq 64), so the bench needs
// no training and starts at once; the forward's cost hardly depends on the
// weights' values (only exact zeros in a linear input are skipped). Each
// case is a shape a guided decode hands the forward:
//
//   ColdPrefill27   a fresh KvCache and a 26-token context: 27 positions
//   WarmAppend/N    a cached 26-token prefix and N new positions
//   DecodePattern   prefill of the 26-token prompt, then appends of 2 and 1
//                   tokens in turn until the context holds 43 tokens (the
//                   longest perfbench row); time_per_forward is the figure
//
//   build/bench/bench_lm_forward --benchmark_repetitions=8
#include <benchmark/benchmark.h>

#include <vector>

#include "lm/transformer.hpp"
#include "util/rng.hpp"

namespace {

using namespace lejit;

constexpr int kVocab = 19;
constexpr std::size_t kPrompt = 26;
constexpr std::size_t kRowTokens = 43;

const lm::Transformer& model() {
  static const lm::Transformer m = [] {
    util::Rng rng(1);
    return lm::Transformer(lm::TransformerConfig{.vocab_size = kVocab,
                                                 .d_model = 64,
                                                 .n_layers = 2,
                                                 .n_heads = 4,
                                                 .d_ff = 128,
                                                 .max_seq = 64},
                           rng);
  }();
  return m;
}

std::vector<int> random_tokens(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<int> out(n);
  for (int& t : out) t = static_cast<int>(rng.uniform_int(0, kVocab - 1));
  return out;
}

// Two contexts that share `prefix` and then differ in their first new token,
// so a cache holding one of them reuses the prefix and recomputes `n`
// positions for the other.
std::pair<std::vector<int>, std::vector<int>> forked(
    const std::vector<int>& prefix, std::size_t n, std::uint64_t seed) {
  std::vector<int> a = prefix, b = prefix;
  const std::vector<int> tail = random_tokens(n, seed);
  a.insert(a.end(), tail.begin(), tail.end());
  b.insert(b.end(), tail.begin(), tail.end());
  b[prefix.size()] = (a[prefix.size()] + 1) % kVocab;
  return {a, b};
}

void BM_ColdPrefill27(benchmark::State& state) {
  const std::vector<int> ctx = random_tokens(kPrompt, 2);
  lm::KvCache cache;
  for (auto _ : state) {
    cache.clear();
    benchmark::DoNotOptimize(model().logits(ctx, cache));
  }
}
BENCHMARK(BM_ColdPrefill27)->Unit(benchmark::kMicrosecond);

void BM_WarmAppend(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto [a, b] = forked(random_tokens(kPrompt, 3), n, 4);
  lm::KvCache cache;
  (void)model().logits(a, cache);
  bool flip = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model().logits(flip ? a : b, cache));
    flip = !flip;
  }
}
BENCHMARK(BM_WarmAppend)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

void BM_DecodePattern(benchmark::State& state) {
  const std::vector<int> row = random_tokens(kRowTokens, 9);
  lm::KvCache cache;
  std::int64_t forwards = 0;
  std::int64_t positions = 0;
  for (auto _ : state) {
    cache.clear();
    std::size_t len = kPrompt;
    std::size_t step = 2;
    std::size_t cached = 0;
    while (true) {
      benchmark::DoNotOptimize(model().logits(
          std::span<const int>(row).first(len), cache));
      ++forwards;
      positions += static_cast<std::int64_t>(len + 1 - cached);
      cached = len + 1;
      if (len == kRowTokens) break;
      len = std::min(len + step, kRowTokens);
      step = 3 - step;
    }
  }
  state.counters["time_per_forward"] = benchmark::Counter(
      static_cast<double>(forwards),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["positions_per_forward"] =
      static_cast<double>(positions) / static_cast<double>(forwards);
}
BENCHMARK(BM_DecodePattern)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
