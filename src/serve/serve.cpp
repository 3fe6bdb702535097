#include "serve/serve.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include <exception>
#include <limits>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"
#include "util/timer.hpp"

namespace lejit::serve {

namespace {

// Pins thread i to the i-th CPU of the process's affinity mask, round robin.
// Sessions are CPU-bound and sleep briefly between rows; left to the kernel,
// two of them were seen sharing one CPU for a whole run while the other CPUs
// ran only idle-priority threads (DESIGN.md §13.2). Placement never changes
// decoded bytes, so a refused request is ignored.
void spread_over_cpus(std::vector<std::thread>& threads) {
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  if (cpus.size() < 2) return;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[i % cpus.size()], &one);
    (void)pthread_setaffinity_np(threads[i].native_handle(), sizeof one, &one);
  }
#else
  (void)threads;
#endif
}

}  // namespace

DecodeSession::DecodeSession(const lm::Transformer& model,
                             const lm::CharTokenizer& tokenizer,
                             const telemetry::RowLayout& layout,
                             rules::RuleSet rules,
                             const core::DecoderConfig& config)
    : model_(model),
      decoder_(model_, tokenizer, layout, std::move(rules), config) {}

// One synchronous run() call: owned prompt copies, results slots, plus a
// countdown latch the session threads decrement as rows finish. The prompts
// live here — not in the caller's span — so Jobs stay self-contained even
// if run() unwinds before the rows drain (e.g. push on a closed queue).
struct Server::RunState {
  std::vector<std::string> prompts;  // immutable once jobs are queued
  util::Mutex mu;
  util::CondVar done_cv;
  std::vector<core::DecodeResult> results LEJIT_GUARDED_BY(mu);
  std::size_t remaining LEJIT_GUARDED_BY(mu) = 0;

  // Safe only because the caller's Job holds a shared_ptr to this state:
  // once remaining hits 0, run() may wake and return at any point, so the
  // notify below must not be the last reference's race against destruction.
  void deliver(std::size_t row, core::DecodeResult result) {
    util::MutexLock lock(mu);
    results[row] = std::move(result);
    if (--remaining == 0) {
      lock.unlock();
      done_cv.notify_all();
    }
  }
};

Server::Server(const lm::Transformer& model,
               const lm::CharTokenizer& tokenizer,
               const telemetry::RowLayout& layout, rules::RuleSet rules,
               core::DecoderConfig decoder_config, ServeConfig config)
    : config_(config), queue_(config.queue_capacity) {
  LEJIT_REQUIRE(config_.workers > 0, "serve: workers must be positive");
  LEJIT_REQUIRE(config_.batch > 0, "serve: batch must be positive");
  LEJIT_REQUIRE(
      config_.workers <= std::numeric_limits<int>::max() / config_.batch,
      "serve: workers * batch overflows the session count");

  const int sessions = config_.workers * config_.batch;
  sessions_.reserve(static_cast<std::size_t>(sessions));
  for (int i = 0; i < sessions; ++i)
    sessions_.push_back(std::make_unique<DecodeSession>(
        model, tokenizer, layout, rules, decoder_config));

  // Threads start only after every session constructed, so a throwing
  // constructor leaves nothing to join.
  threads_.reserve(sessions_.size());
  for (auto& session : sessions_)
    threads_.emplace_back([this, s = session.get()] { session_main(*s); });
  spread_over_cpus(threads_);
}

Server::~Server() {
  queue_.close();
  for (auto& t : threads_) t.join();
}

void Server::session_main(DecodeSession& session) {
  while (auto job = queue_.pop()) {
    core::DecodeResult result;
    try {
      // Serve does not retry rows (no attempt loop), so attempt is 0.
      util::Rng rng = core::row_rng(config_.seed, job->row, 0);
      result = session.decode(rng, job->run->prompts[job->row]);
    } catch (const std::exception& e) {
      result = core::DecodeResult{};
      result.reason = core::FailReason::kFault;
      result.fail_detail = "serve row " + std::to_string(job->row) +
                           " degraded: " + e.what();
      // The throw may have interrupted a KV-cache update mid-write, leaving
      // the cache's recorded ids ahead of its K/V rows; drop the cached
      // prefix so the fault stays confined to this row.
      session.cache().clear();
      degraded_rows_.fetch_add(1, std::memory_order_relaxed);
    }
    forwards_.fetch_add(static_cast<std::uint64_t>(result.stats.lm_calls),
                        std::memory_order_relaxed);
    rows_.fetch_add(1, std::memory_order_relaxed);
    job->run->deliver(job->row, std::move(result));
  }
}

std::vector<core::DecodeResult> Server::run(
    std::span<const std::string> prompts) {
  if (prompts.empty()) return {};
  auto state = std::make_shared<RunState>();
  state->prompts.assign(prompts.begin(), prompts.end());
  {
    // No session thread can see the state before its job is queued, but the
    // guarded members are initialized under the lock anyway — uncontended,
    // and it keeps the thread-safety analysis exact.
    const util::MutexLock lock(state->mu);
    state->results.resize(prompts.size());
    state->remaining = prompts.size();
  }

  util::Timer timer;
  for (std::size_t i = 0; i < state->prompts.size(); ++i) {
    const bool accepted = queue_.push(Job{i, state});
    LEJIT_REQUIRE(accepted, "serve: run() on a closed server");
  }
  std::vector<core::DecodeResult> results;
  {
    util::MutexLock lock(state->mu);
    while (state->remaining != 0) state->done_cv.wait(lock);
    results = std::move(state->results);
  }

  if (obs::metrics_enabled()) {
    auto& registry = obs::MetricsRegistry::instance();
    static obs::Counter& c_rows = registry.counter("serve.rows");
    static obs::Histogram& h_latency = registry.histogram(
        "serve.run_latency_us", obs::HistogramOptions::latency_us());
    c_rows.add(static_cast<std::int64_t>(prompts.size()));
    h_latency.observe(timer.elapsed_seconds() * 1e6);
  }
  return results;
}

ServeStats Server::stats() const {
  ServeStats stats;
  stats.rows = rows_.load(std::memory_order_relaxed);
  stats.degraded_rows = degraded_rows_.load(std::memory_order_relaxed);
  stats.batched_forwards = forwards_.load(std::memory_order_relaxed);
  stats.forwarded_contexts = stats.batched_forwards;
  return stats;
}

}  // namespace lejit::serve
