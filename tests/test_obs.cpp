// Unit tests for lejit::obs — counters, histograms (bucket boundaries and
// percentiles on known distributions), span nesting, logger level filtering,
// and the JSON export shapes.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/decoder.hpp"
#include "lm/ngram.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "rules/miner.hpp"
#include "telemetry/generator.hpp"

namespace {

using namespace lejit;

// Turns metrics on (or off) for one test and restores the prior state, so
// tests can't leak an enabled registry into whatever runs next in-process.
class MetricsScope {
 public:
  explicit MetricsScope(bool on) : prev_(obs::metrics_enabled()) {
    obs::set_metrics_enabled(on);
  }
  ~MetricsScope() { obs::set_metrics_enabled(prev_); }

 private:
  bool prev_;
};

TEST(ObsCounter, AddAndValue) {
  const MetricsScope scope(true);
  obs::Counter c;
  EXPECT_EQ(c.value(), 0);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(ObsCounter, NoOpWhenDisabled) {
  const MetricsScope scope(false);
  obs::Counter c;
  c.inc();
  c.add(100);
  EXPECT_EQ(c.value(), 0);
}

TEST(ObsGauge, SetRespectsEnableGate) {
  {
    const MetricsScope scope(false);
    obs::Gauge g;
    g.set(3.5);
    EXPECT_EQ(g.value(), 0.0);
  }
  {
    const MetricsScope scope(true);
    obs::Gauge g;
    g.set(3.5);
    EXPECT_EQ(g.value(), 3.5);
    g.set(-1.0);  // last write wins
    EXPECT_EQ(g.value(), -1.0);
  }
}

TEST(ObsHistogram, BucketBoundaries) {
  const MetricsScope scope(true);
  // linear(0,4,4) → bounds {1,2,3,4}; buckets are lower-inclusive
  // ([1,2) etc., via upper_bound), with an implicit overflow bucket for
  // v >= the last bound.
  obs::Histogram h(obs::HistogramOptions::linear(0.0, 4.0, 4));
  ASSERT_EQ(h.bounds().size(), 4u);  // 1, 2, 3, 4
  h.observe(0.5);
  h.observe(1.0);   // exactly on a bound → the bucket it starts
  h.observe(2.5);
  h.observe(3.5);
  h.observe(99.0);  // overflow
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.bucket_count(0), 1);  // [0, 1)
  EXPECT_EQ(h.bucket_count(1), 1);  // [1, 2)
  EXPECT_EQ(h.bucket_count(2), 1);  // [2, 3)
  EXPECT_EQ(h.bucket_count(3), 1);  // [3, 4)
  EXPECT_EQ(h.bucket_count(4), 1);  // overflow
  EXPECT_DOUBLE_EQ(h.max(), 99.0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 2.5 + 3.5 + 99.0);
}

TEST(ObsHistogram, PercentilesOnKnownUniform) {
  const MetricsScope scope(true);
  // 100 observations at 0.5, 1.5, ..., 99.5 — one per unit-width bucket:
  // the empirical distribution is uniform on [0, 100], so interpolated
  // percentiles should track p * 100 closely.
  obs::Histogram h(obs::HistogramOptions::linear(0.0, 100.0, 100));
  for (int i = 0; i < 100; ++i) h.observe(i + 0.5);
  EXPECT_EQ(h.count(), 100);
  EXPECT_NEAR(h.percentile(0.50), 50.0, 1.5);
  EXPECT_NEAR(h.percentile(0.90), 90.0, 1.5);
  EXPECT_NEAR(h.percentile(0.99), 99.0, 1.5);
  // p0/p100 stay within the observed range.
  EXPECT_GE(h.percentile(0.0), 0.0);
  EXPECT_LE(h.percentile(1.0), 100.0);
}

TEST(ObsHistogram, PercentileOfPointMass) {
  const MetricsScope scope(true);
  obs::Histogram h(obs::HistogramOptions::linear(0.0, 10.0, 10));
  for (int i = 0; i < 1000; ++i) h.observe(7.3);
  // Every observation is in the (7,8] bucket: all percentiles land there.
  EXPECT_GE(h.percentile(0.50), 7.0);
  EXPECT_LE(h.percentile(0.50), 8.0);
  EXPECT_GE(h.percentile(0.99), 7.0);
  EXPECT_LE(h.percentile(0.99), 8.0);
}

TEST(ObsHistogram, OverflowReportsMax) {
  const MetricsScope scope(true);
  obs::Histogram h(obs::HistogramOptions::linear(0.0, 1.0, 2));
  h.observe(123.0);
  h.observe(456.0);
  // Both land in the +inf bucket; percentiles report the observed max
  // rather than inventing an upper bound.
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 456.0);
}

TEST(ObsHistogram, EmptyAndDisabled) {
  const MetricsScope scope(true);
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  obs::set_metrics_enabled(false);
  h.observe(10.0);
  EXPECT_EQ(h.count(), 0);
}

TEST(ObsHistogram, LatencyLadderIsSortedAndSpans1usTo10s) {
  const auto opts = obs::HistogramOptions::latency_us();
  ASSERT_GE(opts.bounds.size(), 2u);
  for (std::size_t i = 1; i < opts.bounds.size(); ++i)
    EXPECT_LT(opts.bounds[i - 1], opts.bounds[i]);
  EXPECT_DOUBLE_EQ(opts.bounds.front(), 1.0);
  EXPECT_DOUBLE_EQ(opts.bounds.back(), 1e7);  // 10 s in µs
}

TEST(ObsRegistry, StableHandlesAndReset) {
  const MetricsScope scope(true);
  auto& registry = obs::MetricsRegistry::instance();
  obs::Counter& a = registry.counter("test_obs.stable");
  obs::Counter& b = registry.counter("test_obs.stable");
  EXPECT_EQ(&a, &b);  // same name → same object
  a.add(7);
  EXPECT_EQ(b.value(), 7);
  registry.reset();
  EXPECT_EQ(a.value(), 0);  // reset zeroes but the reference stays valid
  a.inc();
  EXPECT_EQ(b.value(), 1);
}

TEST(ObsRegistry, JsonShape) {
  const MetricsScope scope(true);
  auto& registry = obs::MetricsRegistry::instance();
  registry.reset();
  registry.counter("test_obs.json_counter").add(3);
  registry.gauge("test_obs.json_gauge").set(1.5);
  registry.histogram("test_obs.json_hist").observe(42.0);
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test_obs.json_counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test_obs.json_gauge\":1.5"), std::string::npos);
  for (const char* key : {"\"count\"", "\"sum\"", "\"mean\"", "\"max\"",
                          "\"p50\"", "\"p90\"", "\"p99\""})
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  // pretty() mentions every registered metric by name.
  const std::string text = registry.pretty();
  EXPECT_NE(text.find("test_obs.json_counter"), std::string::npos);
  EXPECT_NE(text.find("test_obs.json_hist"), std::string::npos);
}

TEST(ObsJsonWriter, EscapesAndStructures) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("s").value(std::string_view("a\"b\\c\n"));
  w.key("i").value(std::int64_t{-5});
  w.key("b").value(true);
  w.key("nan").value(std::nan(""));  // NaN is not valid JSON → null
  w.key("arr").begin_array();
  w.value(1);
  w.value(2);
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\n\",\"i\":-5,\"b\":true,"
            "\"nan\":null,\"arr\":[1,2]}");
}

TEST(ObsSpan, NestedSpansRecordInclusiveTotals) {
  const MetricsScope scope(true);
  auto& tracer = obs::Tracer::instance();
  tracer.reset();
  {
    const obs::Span outer(obs::Phase::kMaskBuild);
    for (int i = 0; i < 3; ++i) {
      const obs::Span inner(obs::Phase::kSolverCheck);
    }
  }
  const auto mask = tracer.totals(obs::Phase::kMaskBuild);
  const auto check = tracer.totals(obs::Phase::kSolverCheck);
  EXPECT_EQ(mask.count, 1);
  EXPECT_EQ(check.count, 3);
  // The enclosing phase's total is inclusive of its children.
  EXPECT_GE(mask.total_ns, check.total_ns);
  EXPECT_GE(check.total_ns, 0);
}

TEST(ObsSpan, InertWhenDisabled) {
  const MetricsScope scope(true);
  auto& tracer = obs::Tracer::instance();
  tracer.reset();
  obs::set_metrics_enabled(false);
  {
    const obs::Span span(obs::Phase::kSampling);
  }
  EXPECT_EQ(tracer.totals(obs::Phase::kSampling).count, 0);
}

TEST(ObsTracer, CaptureProducesChromeTraceJson) {
  const MetricsScope scope(true);
  auto& tracer = obs::Tracer::instance();
  tracer.reset();
  tracer.start_capture();
  {
    const obs::Span span(obs::Phase::kLmForward);
  }
  {
    const obs::Span span(obs::Phase::kSolverCheck);
  }
  tracer.stop_capture();
  EXPECT_EQ(tracer.num_events(), 2u);
  const std::string json = tracer.trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"lm_forward\""), std::string::npos);
  EXPECT_NE(json.find("\"solver_check\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  tracer.reset();
  EXPECT_EQ(tracer.num_events(), 0u);
}

TEST(ObsTracer, PhaseNames) {
  EXPECT_EQ(obs::phase_name(obs::Phase::kLmForward), "lm_forward");
  EXPECT_EQ(obs::phase_name(obs::Phase::kSolverCheck), "solver_check");
  EXPECT_EQ(obs::phase_name(obs::Phase::kMaskBuild), "mask_build");
  EXPECT_EQ(obs::phase_name(obs::Phase::kSampling), "sampling");
  EXPECT_EQ(obs::phase_name(obs::Phase::kRuleMining), "rule_mining");
}

TEST(ObsLogger, ParseLevel) {
  using obs::LogLevel;
  LogLevel l = LogLevel::kOff;
  EXPECT_TRUE(obs::Logger::parse_level("debug", &l));
  EXPECT_EQ(l, LogLevel::kDebug);
  EXPECT_TRUE(obs::Logger::parse_level("warn", &l));
  EXPECT_EQ(l, LogLevel::kWarn);
  EXPECT_TRUE(obs::Logger::parse_level("warning", &l));
  EXPECT_EQ(l, LogLevel::kWarn);
  EXPECT_TRUE(obs::Logger::parse_level("off", &l));
  EXPECT_EQ(l, LogLevel::kOff);
  l = LogLevel::kInfo;
  EXPECT_FALSE(obs::Logger::parse_level("loud", &l));
  EXPECT_EQ(l, LogLevel::kInfo);  // untouched on failure
}

TEST(ObsLogger, LevelFiltering) {
  using obs::LogLevel;
  const LogLevel prev = obs::Logger::level();
  obs::Logger::set_level(LogLevel::kWarn);
  EXPECT_TRUE(obs::Logger::enabled(LogLevel::kError));
  EXPECT_TRUE(obs::Logger::enabled(LogLevel::kWarn));
  EXPECT_FALSE(obs::Logger::enabled(LogLevel::kInfo));
  EXPECT_FALSE(obs::Logger::enabled(LogLevel::kDebug));
  obs::Logger::set_level(LogLevel::kOff);
  EXPECT_FALSE(obs::Logger::enabled(LogLevel::kError));
  obs::Logger::set_level(prev);
}

TEST(ObsLogger, LazyMessageEvaluation) {
  using obs::LogLevel;
  const LogLevel prev = obs::Logger::level();
  obs::Logger::set_level(LogLevel::kOff);
  int evaluations = 0;
  auto expensive = [&] {
    ++evaluations;
    return std::string("msg");
  };
  LEJIT_LOG_DEBUG(expensive());
  EXPECT_EQ(evaluations, 0);  // macro must not build the disabled message
  obs::Logger::set_level(prev);
}

TEST(ObsDecodeMetrics, RemovedMassHistogramRecordsOnlyInterventions) {
  // Regression: decode.removed_mass used to record every masked step, so the
  // (typical) zero-removal steps drowned the distribution — its p99 read as
  // 0 even when interventions removed most of the mass. The histogram must
  // record exactly one sample per intervention (mask pruned the LM argmax).
  const MetricsScope scope(true);
  auto& registry = obs::MetricsRegistry::instance();
  registry.reset();

  const auto dataset = telemetry::generate_dataset(
      telemetry::GeneratorConfig{.num_racks = 6, .windows_per_rack = 30,
                                 .seed = 13});
  const auto layout = telemetry::telemetry_row_layout(dataset.limits);
  const lm::CharTokenizer tokenizer{telemetry::row_alphabet()};
  // A barely-trained model disagrees with the rules often, guaranteeing
  // interventions; a single observed row keeps it parseable.
  lm::NgramModel model(tokenizer.vocab_size(), lm::NgramConfig{.order = 4});
  const auto windows = telemetry::all_windows(dataset);
  model.observe(tokenizer.encode(telemetry::window_to_row(windows.front())));
  core::GuidedDecoder dec(
      model, tokenizer, layout, rules::manual_rules(layout, dataset.limits),
      core::DecoderConfig{.mode = core::GuidanceMode::kFull});

  util::Rng rng(17);
  std::int64_t interventions = 0, masked_steps = 0;
  for (int i = 0; i < 6; ++i) {
    const core::DecodeResult r = dec.generate(rng);
    interventions += r.stats.interventions;
    masked_steps += r.stats.masked_steps;
  }
  const auto& hist = registry.histogram("decode.removed_mass");
  EXPECT_EQ(hist.count(), interventions);
  ASSERT_GT(interventions, 0) << "fixture must force interventions";
  EXPECT_GT(masked_steps, interventions)
      << "fixture needs zero-removal masked steps for the gate to matter";
}

// A language model that spends a fixed 100 µs in every forward, so that any
// span nested around an LM call would visibly count that time twice.
class SlowModel : public lm::LanguageModel {
 public:
  explicit SlowModel(const lm::LanguageModel& inner) : inner_(inner) {}
  int vocab_size() const override { return inner_.vocab_size(); }
  std::vector<float> logits(std::span<const int> context) const override {
    const std::int64_t until = obs::now_ns() + 100'000;
    while (obs::now_ns() < until) {
    }
    return inner_.logits(context);
  }

 private:
  const lm::LanguageModel& inner_;
};

TEST(ObsDecodeMetrics, PhaseTotalsOfARowStayWithinItsWallTime) {
  // lm_forward, mask_build and sampling must stay disjoint. Totals are
  // inclusive, so a phase nested inside another counts twice, and the
  // three could then sum past the row's wall time — the unspanned time of
  // a row would read negative.
  const MetricsScope scope(true);
  auto& tracer = obs::Tracer::instance();
  const auto dataset = telemetry::generate_dataset(
      telemetry::GeneratorConfig{.num_racks = 6, .windows_per_rack = 30,
                                 .seed = 13});
  const auto layout = telemetry::telemetry_row_layout(dataset.limits);
  const lm::CharTokenizer tokenizer{telemetry::row_alphabet()};
  const auto windows = telemetry::all_windows(dataset);
  lm::NgramModel ngram(tokenizer.vocab_size(), lm::NgramConfig{.order = 6});
  for (const auto& w : windows)
    ngram.observe(tokenizer.encode(telemetry::window_to_row(w)));
  const SlowModel model(ngram);
  core::GuidedDecoder dec(
      model, tokenizer, layout,
      rules::mine_rules(windows, layout, dataset.limits).rules,
      core::DecoderConfig{.mode = core::GuidanceMode::kFull});

  util::Rng rng(5);
  for (int row = 0; row < 6; ++row) {
    tracer.reset();
    const obs::Timer wall;
    const core::DecodeResult r = dec.generate(
        rng, row % 2 == 0 ? std::string()
                          : telemetry::imputation_prompt(
                                windows[static_cast<std::size_t>(row)]));
    const std::int64_t wall_ns = wall.elapsed_ns();
    ASSERT_TRUE(r.ok) << r.fail_detail;
    const auto lm = tracer.totals(obs::Phase::kLmForward);
    const auto mask = tracer.totals(obs::Phase::kMaskBuild);
    const auto sampling = tracer.totals(obs::Phase::kSampling);
    EXPECT_EQ(lm.count, r.stats.lm_calls) << "row " << row;
    EXPECT_GT(mask.count, 0) << "row " << row;
    EXPECT_GT(sampling.count, 0) << "row " << row;
    EXPECT_LE(lm.total_ns + mask.total_ns + sampling.total_ns, wall_ns)
        << "row " << row;
  }
}

TEST(ObsTimer, ElapsedNsMonotonic) {
  obs::Timer t;
  const auto a = t.elapsed_ns();
  const auto b = t.elapsed_ns();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
  EXPECT_NEAR(t.elapsed_seconds(), static_cast<double>(t.elapsed_ns()) * 1e-9,
              1e-3);
  t.reset();
  EXPECT_LT(t.elapsed_ns(), b + 1'000'000'000);  // sanity: reset restarts
}

}  // namespace
