// Process-wide metrics: named counters, gauges, and fixed-bucket latency
// histograms with percentile export.
//
// Design goals, in order:
//   1. Near-zero cost when disabled. Every hot-path hook reduces to one
//      relaxed atomic load and a predictable branch; no clock is read and no
//      memory is written. Observability is compiled in everywhere and gated
//      at runtime (off by default, switched on by CLI flags / benches).
//   2. Thread-safe updates without locks. Counters and histogram buckets are
//      relaxed atomics; the serve runtime's session threads hammer them
//      from many threads at once.
//   3. Stable handles. Registered metrics live for the process lifetime and
//      never move, so call sites look a metric up once (function-local
//      static) and keep the reference.
//
// Export: `MetricsRegistry::to_json()` for machines, `pretty()` for humans.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/sync.hpp"

namespace lejit::obs {

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
}

// Global on/off switch for all metric updates (counters, histograms, spans).
inline bool metrics_enabled() noexcept {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void set_metrics_enabled(bool on) noexcept;

// Monotonically increasing event count.
class Counter {
 public:
  void add(std::int64_t n = 1) noexcept {
    if (metrics_enabled()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Last-write-wins instantaneous value (e.g. a duration, a set size).
class Gauge {
 public:
  void set(double v) noexcept {
    if (metrics_enabled()) v_.store(v, std::memory_order_relaxed);
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

struct HistogramOptions {
  // Ascending bucket upper bounds; an implicit +inf bucket follows the last.
  std::vector<double> bounds;

  // Exponential 1-2-5 ladder from 1 µs to 10 s — the default for latency
  // histograms recorded in microseconds.
  static HistogramOptions latency_us();
  // `n` equal-width buckets over [lo, hi] (plus the +inf overflow bucket).
  static HistogramOptions linear(double lo, double hi, int n);
};

// Fixed-bucket histogram with interpolated percentiles.
class Histogram {
 public:
  explicit Histogram(HistogramOptions opts = HistogramOptions::latency_us());

  void observe(double v) noexcept;

  std::int64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double mean() const noexcept {
    const auto n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  double max() const noexcept { return max_.load(std::memory_order_relaxed); }

  // Interpolated p-th percentile (p in [0,1]) assuming a uniform
  // distribution within each bucket; values landing in the overflow bucket
  // report the observed max. 0 observations ⇒ 0.
  double percentile(double p) const;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  std::int64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::int64_t>[]> buckets_;  // bounds_.size()+1
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

// Name → metric map. Lookup is mutex-protected (cold: once per call site);
// updates through the returned references are lock-free.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  // `opts` is honored on first registration only.
  Histogram& histogram(
      const std::string& name,
      HistogramOptions opts = HistogramOptions::latency_us());

  // Zero every registered metric. Registrations (and references handed out)
  // stay valid — benches call this between measured modes.
  void reset();

  // {"counters": {...}, "gauges": {...}, "histograms": {name:
  //  {count,sum,mean,max,p50,p90,p99}}} — keys sorted by metric name.
  std::string to_json() const;
  // Fixed-width human-readable dump of the same data.
  std::string pretty() const;

 private:
  MetricsRegistry() = default;

  mutable util::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      LEJIT_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ LEJIT_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      LEJIT_GUARDED_BY(mu_);
};

}  // namespace lejit::obs
