// The three workloads: repeated set-up, warm-up, the timed section, the
// optional traced section, output checks and the report. README.md gives the
// rationale for each workload and the meaning of each metric.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "core/batch.hpp"
#include "core/decoder.hpp"
#include "lm/ngram.hpp"
#include "lm/tokenizer.hpp"
#include "lm/transformer.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/plan.hpp"
#include "rules/checker.hpp"
#include "rules/parser.hpp"
#include "serve/serve.hpp"
#include "telemetry/generator.hpp"
#include "telemetry/text.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace lejit;

enum class Workload { kImputeGpt, kSynthNgram, kServeImpute };

struct WorkloadSpec {
  Workload id;
  const char* name;
  // Untimed rows decoded first; their prompts are never reused.
  std::size_t warmup_rows;
  // Generous ceiling on any commit's decode rate. It sizes the prompt pool
  // and the row buffer; a run that outpaces it ends its section early.
  double max_rows_per_s;
  int clients;  // closed-loop clients, each waiting for its reply
  // peak_rss_mb is read once this many timed rows are done: the decoder's
  // caches grow with the rows decoded, so a fixed row count keeps a faster
  // commit from reading as using more memory.
  std::size_t rss_rows;
};

constexpr WorkloadSpec kWorkloads[] = {
    {Workload::kImputeGpt, "impute-gpt", 100, 1500.0, 1, 1000},
    {Workload::kSynthNgram, "synth-ngram", 400, 6000.0, 1, 5000},
    // 2 clients + 1 worker x 2 sessions = 4 threads, as many as the 4 vCPUs
    // of the host this benchmark was tuned on.
    {Workload::kServeImpute, "serve-impute", 100, 1500.0, 2, 1000},
};
constexpr int kServeWorkers = 1;
constexpr int kServeBatch = 2;

// The host this benchmark was tuned on often switches the same code between
// a fast and a slow speed, about 1.8x apart, every few tens of milliseconds,
// in a proportion that drifts over minutes. A figure over the whole run mixes
// the two speeds in whatever proportion the run fell into, and a percentile
// of the row times jumps from one speed to the other when that proportion
// crosses it. Every timing metric is therefore taken over the run's slow
// phase: the timed section is cut into kSliceS slices by row completion time,
// and the kSlowShare of them with the highest median row time form the
// phase. Set-ups are ranked one by one the same way. README.md shows the
// measurements behind this.
constexpr double kSliceS = 0.25;
constexpr double kSlowShare = 1.0 / 3;
// Set-ups come in two groups, before the warm-up and after the output checks,
// each of at least kMinSetups and until kSetupBudgetS has passed.
constexpr std::size_t kMinSetups = 12;
constexpr std::size_t kMaxSetups = 400;
constexpr double kSetupBudgetS = 1.0;
// serve-impute rows re-decoded sequentially and compared byte for byte.
constexpr std::size_t kServeChecks = 24;
// Longest row text a RowRecord keeps (rows of this schema stay under 50).
constexpr std::size_t kTextSlot = 62;

const WorkloadSpec& find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads)
    if (name == w.name) return w;
  throw util::RuntimeError("unknown workload '" + name +
                           "' (impute-gpt | synth-ngram | serve-impute)");
}

// --- inputs of one run -------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Imputation prompts from fresh racks generated from the workload seed, in a
// seeded random order. A window is kept only if its ground truth satisfies the
// rule set, so every prompt has a compliant completion.
std::vector<std::string> make_prompts(std::uint64_t seed,
                                      const rules::RuleSet& rules,
                                      std::size_t count) {
  std::vector<std::string> prompts;
  for (std::uint64_t batch = 0; prompts.size() < count; ++batch) {
    const auto dataset = telemetry::generate_dataset(telemetry::GeneratorConfig{
        .num_racks = 20,
        .windows_per_rack = 80,
        .seed = splitmix64(seed * 1000003 + batch)});
    for (const auto& w : telemetry::all_windows(dataset))
      if (rules::violated_rules(rules, w).empty())
        prompts.push_back(telemetry::imputation_prompt(w));
  }
  util::Rng rng(splitmix64(seed));
  for (std::size_t i = prompts.size(); i > 1; --i)
    std::swap(prompts[i - 1], prompts[static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<std::int64_t>(i) - 1))]);
  prompts.resize(count);
  return prompts;
}

rules::RuleSet parse_or_throw(const std::string& text,
                              const telemetry::RowLayout& layout) {
  rules::ParsedRules parsed = rules::parse_rules(text, layout);
  LEJIT_REQUIRE(parsed.ok(), "benchmark rule text does not parse");
  return std::move(parsed.rules);
}

// --- set-up -----------------------------------------------------------------

struct SetupTimes {
  double rules_parse_s = 0;
  double model_s = 0;    // checkpoint load, or n-gram build from the rows
  double plan_s = 0;     // plan::compile (synth-ngram only)
  double decoder_s = 0;  // GuidedDecoder or Server constructor
  double total_s = 0;
};

// Everything one set-up builds. Declaration order is destruction order in
// reverse: the decoder and server go before the models they borrow.
struct Engine {
  std::unique_ptr<lm::Transformer> transformer;
  std::unique_ptr<lm::NgramModel> ngram;
  std::unique_ptr<TimedModel> proxy;  // traced sequential runs only
  std::unique_ptr<core::GuidedDecoder> decoder;
  std::unique_ptr<serve::Server> server;
};

double elapsed_s(std::int64_t from, std::int64_t to) {
  return static_cast<double>(to - from) / 1e9;
}

std::unique_ptr<Engine> set_up(const WorkloadSpec& spec, const Inputs& in,
                               const telemetry::RowLayout& layout,
                               const lm::CharTokenizer& tokenizer,
                               std::uint64_t seed, SpanLog* log,
                               SetupTimes& times) {
  auto e = std::make_unique<Engine>();
  const bool synth = spec.id == Workload::kSynthNgram;
  const std::int64_t t0 = now_ns();
  rules::RuleSet rules = parse_or_throw(
      synth ? in.synth_rules_text : in.impute_rules_text, layout);
  const std::int64_t t1 = now_ns();
  if (synth) {
    e->ngram = std::make_unique<lm::NgramModel>(tokenizer.vocab_size(),
                                                lm::NgramConfig{.order = 6});
    for (const std::string& row : in.train_rows)
      e->ngram->observe(tokenizer.encode(row));
  } else {
    e->transformer = std::make_unique<lm::Transformer>(
        lm::Transformer::load(in.model_path));
  }
  const std::int64_t t2 = now_ns();
  // The default configuration, as `lejit_cli impute`/`synth` use it: kFull,
  // solver cache and absint prefilter on.
  core::DecoderConfig config;
  if (synth) config.plan = plan::compile(rules, layout);
  const std::int64_t t3 = synth ? now_ns() : t2;
  if (spec.id == Workload::kServeImpute) {
    e->server = std::make_unique<serve::Server>(
        *e->transformer, tokenizer, layout, std::move(rules), config,
        serve::ServeConfig{
            .workers = kServeWorkers, .batch = kServeBatch, .seed = seed});
  } else {
    const lm::LanguageModel& base =
        synth ? static_cast<const lm::LanguageModel&>(*e->ngram)
              : *e->transformer;
    if (log != nullptr) e->proxy = std::make_unique<TimedModel>(base);
    e->decoder = std::make_unique<core::GuidedDecoder>(
        e->proxy ? *e->proxy : base, tokenizer, layout, std::move(rules),
        config);
  }
  const std::int64_t t4 = now_ns();

  times = {elapsed_s(t0, t1), elapsed_s(t1, t2), elapsed_s(t2, t3),
           elapsed_s(t3, t4), elapsed_s(t0, t4)};
  if (log != nullptr) {
    const std::uint64_t root = log->reserve_id();
    log->add(log->reserve_id(), "setup.rules_parse", t0, t1, root, -1);
    log->add(log->reserve_id(), "setup.model", t1, t2, root, -1);
    if (synth) log->add(log->reserve_id(), "plan.compile", t2, t3, root, -1);
    log->add(log->reserve_id(), "setup.decoder", t3, t4, root, -1);
    log->add(root, "setup", t0, t4, 0, -1);
  }
  return e;
}

// --- decoding sections ---------------------------------------------------------

// One decoded row. The buffer of these is allocated and touched before the
// peak-RSS reset, so a faster commit that decodes more rows does not read as
// using more memory.
struct RowRecord {
  double ms = 0;     // generate() call, or the client's Server::run round trip
  double end_s = 0;  // completion time within its section
  bool ok = false;
  std::uint8_t len = 0;  // kTextSlot + 1 marks a row too long to keep
  char text[kTextSlot] = {};

  std::string_view view() const { return {text, len}; }
};

// Sums the DecodeStats counters the per-layer metrics read.
void accumulate(core::DecodeStats& into, const core::DecodeStats& s) {
  into.solver_checks += s.solver_checks;
  into.absint_checks += s.absint_checks;
  into.absint_hits += s.absint_hits;
  into.plan_table_hits += s.plan_table_hits;
  into.plan_sliced_queries += s.plan_sliced_queries;
}

struct Section {
  std::size_t first = 0;  // rows [first, first + count)
  std::size_t count = 0;
  double wall_s = 0;      // start to the last row's completion
  core::DecodeStats totals;
};

// Decodes row `row`; `log`/`row_span` are set in traced sections only.
using DecodeFn = std::function<core::DecodeResult(
    std::size_t row, SpanLog* log, std::uint64_t row_span)>;

// Closed loop: each client takes the next row, decodes it, and repeats until
// `seconds` have passed or rows [first, limit) run out. One client runs on
// the calling thread, as a sequential decode would.
Section run_section(const DecodeFn& decode, int clients, std::size_t first,
                    std::size_t limit, double seconds,
                    std::vector<RowRecord>& records,
                    std::span<SpanLog> logs) {
  std::atomic<std::size_t> next{first};
  std::vector<core::DecodeStats> totals(static_cast<std::size_t>(clients));
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);

  const auto client = [&](std::size_t c) {
    SpanLog* log = logs.empty() ? nullptr : &logs[c];
    while (now_ns() < deadline) {
      const std::size_t row = next.fetch_add(1);
      if (row >= limit) break;
      const std::uint64_t span = log ? log->reserve_id() : 0;
      const std::int64_t t0 = now_ns();
      const core::DecodeResult r = decode(row, log, span);
      const std::int64_t t1 = now_ns();
      if (log) log->add(span, "row", t0, t1, 0, static_cast<std::int64_t>(row));
      RowRecord& rec = records[row];
      rec.ms = static_cast<double>(t1 - t0) / 1e6;
      rec.end_s = elapsed_s(start, t1);
      rec.ok = r.ok;
      if (r.text.size() > kTextSlot) {
        rec.len = kTextSlot + 1;
      } else {
        rec.len = static_cast<std::uint8_t>(r.text.size());
        std::memcpy(rec.text, r.text.data(), r.text.size());
      }
      accumulate(totals[c], r.stats);
    }
  };

  if (clients == 1) {
    client(0);
  } else {
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(clients));
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < totals.size(); ++c)
      threads.emplace_back([&, c] {
        try {
          client(c);
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    for (auto& t : threads) t.join();
    for (const auto& e : errors)
      if (e) std::rethrow_exception(e);
  }

  Section s;
  s.first = first;
  s.count = std::min(next.load(), limit) - first;
  for (std::size_t row = first; row < first + s.count; ++row)
    s.wall_s = std::max(s.wall_s, records[row].end_s);
  for (const core::DecodeStats& t : totals) accumulate(s.totals, t);
  return s;
}

// --- output checks ----------------------------------------------------------------

struct Checks {
  std::size_t failed = 0;      // rows not ok
  std::size_t violations = 0;  // ok rows that break a rule, do not parse or
                               // lost their prompt
  std::size_t mismatches = 0;  // serve rows unlike their sequential decode
  std::size_t compared = 0;
  std::vector<bool> compliant;  // per row
};

// Re-checks every emitted row with rules::violated_rules, which shares no
// code with the decoder's mask.
Checks check_rows(const std::vector<RowRecord>& records, std::size_t rows,
                  const rules::RuleSet& rules,
                  const telemetry::RowLayout& layout,
                  const std::vector<std::string>& prompts) {
  Checks c;
  c.compliant.assign(rows, false);
  for (std::size_t row = 0; row < rows; ++row) {
    const RowRecord& rec = records[row];
    if (!rec.ok) {
      ++c.failed;
      continue;
    }
    const auto window = rec.len <= kTextSlot
                            ? telemetry::parse_row(rec.view(), layout)
                            : std::nullopt;
    const bool kept_prompt =
        prompts.empty() || rec.view().starts_with(prompts[row]);
    if (window && kept_prompt && rules::violated_rules(rules, *window).empty())
      c.compliant[row] = true;
    else
      ++c.violations;
  }
  return c;
}

// serve-impute's determinism contract: a served row equals the sequential
// decode of its prompt with the same core::row_rng stream. Server::run numbers
// rows from 0 per call, and each client request carries one prompt.
void compare_with_sequential(const Engine& e, const Section& s,
                             const std::vector<RowRecord>& records,
                             const std::vector<std::string>& prompts,
                             const rules::RuleSet& rules,
                             const telemetry::RowLayout& layout,
                             const lm::CharTokenizer& tokenizer,
                             std::uint64_t seed, Checks& c) {
  lm::TransformerSession session(*e.transformer);
  core::GuidedDecoder decoder(session, tokenizer, layout, rules,
                              core::DecoderConfig{});
  const std::size_t n = std::min(kServeChecks, s.count);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t row = s.first + k * s.count / n;
    util::Rng rng = core::row_rng(seed, 0, 0);
    const core::DecodeResult r = decoder.generate(rng, prompts[row]);
    const RowRecord& rec = records[row];
    if (r.ok != rec.ok || rec.len > kTextSlot || r.text != rec.view())
      ++c.mismatches;
    ++c.compared;
  }
}

// --- statistics ------------------------------------------------------------------

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double ratio(std::int64_t num, std::int64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double setup_percentile(const std::vector<SetupTimes>& setups,
                        double SetupTimes::*field, double p) {
  std::vector<double> v;
  for (const SetupTimes& t : setups) v.push_back(t.*field);
  return percentile(std::move(v), p);
}

std::size_t slow_count(std::size_t n) {
  const double share = std::ceil(static_cast<double>(n) * kSlowShare);
  return std::max<std::size_t>(1, static_cast<std::size_t>(share));
}

// The set-ups' slow phase: the kSlowShare of them with the longest total.
std::vector<SetupTimes> slow_setups(std::vector<SetupTimes> setups) {
  std::sort(setups.begin(), setups.end(),
            [](const SetupTimes& a, const SetupTimes& b) {
              return a.total_s > b.total_s;
            });
  setups.resize(std::min(setups.size(), slow_count(setups.size())));
  return setups;
}

// The rows of a section's slow phase (see kSliceS). Only whole slices count;
// slices in which no row completed are left out.
struct Phase {
  std::vector<double> ms;  // row times
  std::size_t compliant = 0;
  std::size_t slices = 0;
  double seconds = 0;
};

Phase slow_phase(const Section& s, const std::vector<RowRecord>& records,
                 const Checks& c) {
  Phase phase;
  if (s.count == 0 || s.wall_s <= 0) return phase;
  const double slice_s = std::min(kSliceS, s.wall_s);
  const auto n = static_cast<std::size_t>(s.wall_s / slice_s);
  std::vector<std::vector<std::size_t>> slices(n);
  for (std::size_t row = s.first; row < s.first + s.count; ++row) {
    const double at = records[row].end_s / slice_s;
    if (at > static_cast<double>(n)) continue;  // the partial last slice
    slices[std::min(static_cast<std::size_t>(at), n - 1)].push_back(row);
  }
  std::vector<std::pair<double, std::size_t>> ranked;  // (median ms, slice)
  for (std::size_t k = 0; k < n; ++k) {
    if (slices[k].empty()) continue;
    std::vector<double> ms;
    for (const std::size_t row : slices[k]) ms.push_back(records[row].ms);
    ranked.emplace_back(percentile(std::move(ms), 0.5), k);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  ranked.resize(std::min(ranked.size(), slow_count(ranked.size())));
  for (const auto& entry : ranked) {
    for (const std::size_t row : slices[entry.second]) {
      phase.ms.push_back(records[row].ms);
      phase.compliant += c.compliant[row] ? 1 : 0;
    }
    phase.seconds += slice_s;
  }
  phase.slices = ranked.size();
  return phase;
}

// Compliant rows per second of the slow phase.
double compliant_rate(const Phase& p) {
  return ratio(static_cast<double>(p.compliant), p.seconds);
}

// Compliant rows per second of wall time over the whole section.
double compliant_rate(const Section& s, const Checks& c) {
  std::size_t rows = 0;
  for (std::size_t row = s.first; row < s.first + s.count; ++row)
    rows += c.compliant[row] ? 1 : 0;
  return ratio(static_cast<double>(rows), s.wall_s);
}

std::vector<double> row_ms(const Section& s,
                           const std::vector<RowRecord>& records) {
  std::vector<double> ms;
  ms.reserve(s.count);
  for (std::size_t row = s.first; row < s.first + s.count; ++row)
    ms.push_back(records[row].ms);
  return ms;
}

// --- process placement and memory ---------------------------------------------------

// Confines a sequential run to the first vCPU it may use, so its one busy
// thread keeps its caches. serve-impute keeps the whole mask: its clients and
// sessions must be free to overlap. Returns the vCPU, or -1 where the kernel
// refuses.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

// Keeps every vCPU the run may use busy while it lives: one SCHED_IDLE thread
// per vCPU spins there, and the kernel runs it only when no other thread
// wants that vCPU, so it takes no time from the benchmark's threads. On the
// nested-virtualized host this benchmark was tuned on, an idle vCPU halts and
// waking it costs milliseconds at random, which swamped serve-impute's own
// wake-up and rendezvous cost: over four alternating pairs of 10 s runs, its
// p99 read 13.0-22.9 ms without these threads and 13.9-14.8 ms with them. A
// guest booted with idle=poll behaves the same. The sequential workloads never
// leave their one vCPU idle and run without them.
class KeepAwake {
 public:
  KeepAwake() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &allowed))
        threads_.emplace_back([this, cpu] { spin(cpu); });
  }
  ~KeepAwake() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

  // Threads that are spinning; one that could not take the idle policy or
  // its vCPU has returned, so it never competes with the benchmark.
  int active() const { return active_.load(); }

 private:
  void spin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    const sched_param idle{};
    if (pthread_setaffinity_np(pthread_self(), sizeof one, &one) != 0 ||
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle) != 0)
      return;
    ++active_;
    while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#else
      std::this_thread::yield();
#endif
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<int> active_{0};
  std::vector<std::thread> threads_;
};

// Drops the peak-RSS mark to the current RSS, so peak_rss_mb leaves out the
// input preparation before it. False where the kernel refuses.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.close();
  return !f.fail();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.starts_with("VmHWM:"))
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  throw util::RuntimeError("no VmHWM in /proc/self/status");
}

// --- per-layer counters ------------------------------------------------------------

// Cumulative counters of the layers behind the decode: the decoder's public
// stats for sequential workloads; for serve, whose sessions are private, the
// obs counters (enabled and reset for the traced section) and Server::stats().
struct LayerCounters {
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_evictions = 0;
  std::int64_t smt_checks = 0;
  std::int64_t smt_propagations = 0;
  std::uint64_t batched_forwards = 0;
  std::uint64_t forwarded_contexts = 0;
};

LayerCounters read_counters(const Engine& e) {
  LayerCounters c;
  if (e.server) {
    auto& registry = obs::MetricsRegistry::instance();
    c.cache_hits = registry.counter("decode.cache.hits").value();
    c.cache_misses = registry.counter("decode.cache.misses").value();
    c.cache_evictions = registry.counter("decode.cache.evictions").value();
    c.smt_checks = registry.counter("smt.checks").value();
    c.smt_propagations = registry.counter("smt.propagations").value();
    const serve::ServeStats stats = e.server->stats();
    c.batched_forwards = stats.batched_forwards;
    c.forwarded_contexts = stats.forwarded_contexts;
  } else {
    const auto& cache = e.decoder->cache_stats();
    c.cache_hits = cache.hits;
    c.cache_misses = cache.misses;
    c.cache_evictions = cache.evictions;
    const smt::SolverStats solver = e.decoder->solver_stats();
    c.smt_checks = solver.checks;
    c.smt_propagations = solver.propagations;
  }
  return c;
}

// --- report ----------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// What a traced section saw of the layers below the decode.
struct TracedLayers {
  Section section;
  LayerCounters before, after;
  obs::Tracer::PhaseTotals lm, mask_build, sampling, solver_check;
  bool served = false;
  std::int64_t proxy_calls = 0;  // sequential workloads: the LM proxy's
  std::int64_t proxy_busy_ns = 0;
};

std::vector<Metric> per_layer_metrics(const TracedLayers& t,
                                      std::span<const SpanLog> client_logs,
                                      const std::vector<SetupTimes>& setups,
                                      double untraced_rate,
                                      double traced_rate) {
  const auto rows =
      static_cast<double>(std::max<std::size_t>(t.section.count, 1));
  std::int64_t row_ns = 0, row_self_ns = 0;
  for (const SpanLog& log : client_logs) {
    for (const SpanRecord& s : log.spans())
      if (std::string_view(s.name) == "row") row_ns += s.end_ns - s.start_ns;
    row_self_ns += total_self_ns(log, "row");
  }
  const bool served = t.served;
  const auto contexts = static_cast<std::int64_t>(t.after.forwarded_contexts -
                                                  t.before.forwarded_contexts);
  const auto forwards = static_cast<std::int64_t>(t.after.batched_forwards -
                                                  t.before.batched_forwards);
  // Sequential rows: the proxy's child spans. Served rows: the sessions'
  // existing lm_forward phase, rendezvous wait plus batched forward.
  const std::int64_t lm_calls = served ? contexts : t.proxy_calls;
  const std::int64_t lm_ns = served ? t.lm.total_ns : t.proxy_busy_ns;
  const std::int64_t enforce_ns = served ? row_ns - t.lm.total_ns : row_self_ns;
  const std::int64_t hits = t.after.cache_hits - t.before.cache_hits;
  const std::int64_t lookups = hits + t.after.cache_misses - t.before.cache_misses;
  const core::DecodeStats& d = t.section.totals;
  const auto per_row = [&](std::int64_t n) {
    return static_cast<double>(n) / rows;
  };
  const auto per_row_ms = [&](std::int64_t ns) { return per_row(ns) / 1e6; };
  const auto setup_median = [&](double SetupTimes::*field) {
    return setup_percentile(setups, field, 0.5);
  };
  return {
      {"lm.forwards_per_row", per_row(lm_calls), "count"},
      {"lm.forward_us", ratio(lm_ns, lm_calls) / 1e3, "us"},
      {"lm.share", ratio(lm_ns, row_ns), "ratio"},
      {"decode.enforce_ms_per_row", per_row_ms(enforce_ns), "ms"},
      {"decode.unspanned_ms_per_row",
       per_row_ms(row_ns - t.lm.total_ns - t.mask_build.total_ns -
                  t.sampling.total_ns),
       "ms"},
      {"decode.mask_build_ms_per_row", per_row_ms(t.mask_build.total_ns), "ms"},
      {"decode.solver_checks_per_row", per_row(d.solver_checks), "count"},
      {"cache.lookups_per_row", per_row(lookups), "count"},
      {"cache.hit_ratio", ratio(hits, lookups), "ratio"},
      {"cache.evictions",
       static_cast<double>(t.after.cache_evictions - t.before.cache_evictions),
       "count"},
      {"smt.check_ms_per_row", per_row_ms(t.solver_check.total_ns), "ms"},
      {"smt.checks_per_row", per_row(t.after.smt_checks - t.before.smt_checks),
       "count"},
      {"smt.propagations_per_row",
       per_row(t.after.smt_propagations - t.before.smt_propagations), "count"},
      {"absint.checks_per_row", per_row(d.absint_checks), "count"},
      {"absint.refute_ratio", ratio(d.absint_hits, d.absint_checks), "ratio"},
      {"plan.compile_s", setup_median(&SetupTimes::plan_s), "s"},
      {"plan.table_hits_per_row", per_row(d.plan_table_hits), "count"},
      {"plan.sliced_queries_per_row", per_row(d.plan_sliced_queries), "count"},
      {"serve.batch_width_mean", ratio(contexts, forwards), "count"},
      {"serve.forwards_per_row", per_row(forwards), "count"},
      {"serve.lm_ms_per_row", served ? per_row_ms(t.lm.total_ns) : 0.0, "ms"},
      {"setup.model_s", setup_median(&SetupTimes::model_s), "s"},
      {"setup.rules_parse_s", setup_median(&SetupTimes::rules_parse_s), "s"},
      {"setup.decoder_s", setup_median(&SetupTimes::decoder_s), "s"},
      {"trace.rows_per_s", traced_rate, "rows/s"},
      {"trace.overhead_ratio", ratio(untraced_rate, traced_rate), "ratio"},
  };
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

const char* compiler_name() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int run(const RunOptions& o) {
  const WorkloadSpec& spec = find_workload(o.workload);
  LEJIT_REQUIRE(o.seconds > 0, "--seconds must be positive");
  LEJIT_REQUIRE(!o.trace || !o.trace_out.empty(), "traced runs need --trace-out");
  const int cpu = spec.clients == 1 ? pin_to_one_cpu() : -1;
  const std::unique_ptr<KeepAwake> keep_awake =
      spec.clients == 1 ? nullptr : std::make_unique<KeepAwake>();
  const std::int64_t run_start = now_ns();
  const telemetry::Limits limits;
  const telemetry::RowLayout layout = telemetry::telemetry_row_layout(limits);
  const lm::CharTokenizer tokenizer(telemetry::row_alphabet());
  const Inputs in = load_inputs(o.inputs_dir, layout, tokenizer);
  const bool synth = spec.id == Workload::kSynthNgram;
  const rules::RuleSet rules = parse_or_throw(
      synth ? in.synth_rules_text : in.impute_rules_text, layout);

  // A traced run splits its time between an untraced and a traced section,
  // so it takes as long as an untraced one.
  const int sections = o.trace ? 2 : 1;
  const double section_s = o.seconds / sections;

  // Input preparation, outside every timed section and the memory figure.
  const auto per_section =
      static_cast<std::size_t>(std::ceil(spec.max_rows_per_s * section_s));
  const std::size_t capacity = spec.warmup_rows + sections * per_section;
  const std::vector<std::string> prompts =
      synth ? std::vector<std::string>{} : make_prompts(o.seed, rules, capacity);
  std::vector<RowRecord> records(capacity);
  const bool rss_reset = reset_peak_rss();

  // Traced runs: log 0 takes the set-up spans, log 1 + c those of client c.
  std::vector<SpanLog> logs;
  if (o.trace)
    for (int t = 0; t <= spec.clients; ++t) logs.emplace_back(t);
  SpanLog* setup_log = o.trace ? &logs[0] : nullptr;

  std::vector<SetupTimes> setups;
  std::unique_ptr<Engine> engine;
  const auto set_up_group = [&] {
    const std::int64_t start = now_ns();
    for (std::size_t n = 0;
         n < kMinSetups ||
         (n < kMaxSetups && elapsed_s(start, now_ns()) < kSetupBudgetS);
         ++n) {
      engine.reset();  // one set-up alive at a time, as in a real start
      engine = set_up(spec, in, layout, tokenizer, o.seed, setup_log,
                      setups.emplace_back());
    }
  };
  set_up_group();

  // Written by the client that finishes row rss_row, read after the join.
  const std::size_t rss_row = spec.warmup_rows + spec.rss_rows;
  double peak_mb = 0;
  const DecodeFn decode = [&](std::size_t row, SpanLog* log,
                              std::uint64_t span) -> core::DecodeResult {
    core::DecodeResult r;
    if (engine->server) {
      r = std::move(engine->server->run(std::span(&prompts[row], 1)).front());
    } else {
      if (engine->proxy)
        engine->proxy->attach(log, span, static_cast<std::int64_t>(row));
      util::Rng rng = core::row_rng(o.seed, row, 0);
      r = engine->decoder->generate(
          rng, synth ? std::string_view{} : std::string_view(prompts[row]));
    }
    if (row == rss_row && peak_mb == 0) peak_mb = peak_rss_mb();
    return r;
  };

  const Section warmup = run_section(decode, spec.clients, 0, spec.warmup_rows,
                                     1e9, records, {});
  std::size_t next_row = warmup.count;
  const Section timed = run_section(decode, spec.clients, next_row,
                                    next_row + per_section, section_s,
                                    records, {});
  next_row += timed.count;
  if (peak_mb == 0) peak_mb = peak_rss_mb();  // section ended before rss_row

  TracedLayers traced_layers;
  const Section& traced = traced_layers.section;
  if (o.trace) {
    obs::set_metrics_enabled(true);
    obs::MetricsRegistry::instance().reset();
    obs::Tracer::instance().reset();
    traced_layers.before = read_counters(*engine);
    traced_layers.section = run_section(decode, spec.clients, next_row,
                                     next_row + per_section, section_s,
                                     records, std::span(logs).subspan(1));
    traced_layers.after = read_counters(*engine);
    const obs::Tracer& tracer = obs::Tracer::instance();
    traced_layers.lm = tracer.totals(obs::Phase::kLmForward);
    traced_layers.mask_build = tracer.totals(obs::Phase::kMaskBuild);
    traced_layers.sampling = tracer.totals(obs::Phase::kSampling);
    traced_layers.solver_check = tracer.totals(obs::Phase::kSolverCheck);
    obs::set_metrics_enabled(false);
    traced_layers.served = engine->server != nullptr;
    if (engine->proxy) {
      engine->proxy->attach(nullptr, 0, -1);
      traced_layers.proxy_calls = engine->proxy->calls();
      traced_layers.proxy_busy_ns = engine->proxy->busy_ns();
    }
    next_row += traced.count;
  }

  // Output checks, outside every timed section.
  if (o.corrupt_row && timed.count > 0) {
    // Total out of every mined bound; the fields after it stay intact.
    RowRecord& rec = records[timed.first];
    const std::size_t rest = std::min(rec.view().find(' '), rec.view().size());
    const std::string bad = "T=999" + std::string(rec.view().substr(rest));
    rec.len = static_cast<std::uint8_t>(std::min(bad.size(), kTextSlot));
    std::memcpy(rec.text, bad.data(), rec.len);
  }
  Checks checks = check_rows(records, next_row, rules, layout, prompts);
  if (engine->server)
    compare_with_sequential(*engine, timed, records, prompts, rules, layout,
                            tokenizer, o.seed, checks);
  const bool correct = checks.violations == 0 && checks.mismatches == 0;
  set_up_group();

  // The emitted-rows digest covers the warm-up rows: a fixed count, so it
  // compares across commits whatever their speed.
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (std::size_t row = 0; row < warmup.count; ++row)
    digest = fnv1a(std::string(records[row].view()) + "\n", digest);

  std::vector<Metric> metrics;
  const Phase slow = slow_phase(timed, records, checks);
  const std::vector<SetupTimes> slow_set = slow_setups(setups);
  const std::vector<double> timed_ms = row_ms(timed, records);
  if (!o.trace) {
    metrics = {
        {"rows_per_s", compliant_rate(slow), "rows/s"},
        {"row_ms_p50", percentile(slow.ms, 0.50), "ms"},
        {"row_ms_p90", percentile(slow.ms, 0.90), "ms"},
        {"setup_s", setup_percentile(slow_set, &SetupTimes::total_s, 0.5),
         "s"},
        {"peak_rss_mb", peak_mb, "MB"},
    };
  } else {
    metrics = per_layer_metrics(
        traced_layers, std::span(logs).subspan(1), slow_set,
        compliant_rate(slow),
        compliant_rate(slow_phase(traced, records, checks)));
    write_chrome_trace(o.trace_out, logs, run_start);
  }

  obs::JsonWriter w;
  w.begin_object();
  w.key("correct").value(correct);
  w.key("attempted").value(static_cast<std::uint64_t>(next_row));
  w.key("failed").value(static_cast<std::uint64_t>(checks.failed));
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.key("info").begin_object();
  w.key("workload").value(spec.name);
  w.key("seed").value(o.seed);
  w.key("seconds").value(o.seconds);
  w.key("compiler").value(compiler_name());
  w.key("build_type").value(PERFBENCH_BUILD_TYPE);
  w.key("rules").value(static_cast<std::uint64_t>(rules.size()));
  w.key("warmup_rows").value(static_cast<std::uint64_t>(warmup.count));
  w.key("timed_rows").value(static_cast<std::uint64_t>(timed.count));
  w.key("timed_wall_s").value(timed.wall_s);
  w.key("traced_rows").value(static_cast<std::uint64_t>(traced.count));
  w.key("violations").value(static_cast<std::uint64_t>(checks.violations));
  w.key("serve_compared").value(static_cast<std::uint64_t>(checks.compared));
  w.key("serve_mismatches").value(static_cast<std::uint64_t>(checks.mismatches));
  w.key("rows_fnv1a64").value(hex64(digest));
  w.key("peak_rss_reset").value(rss_reset);
  w.key("pinned_cpu").value(cpu);
  w.key("keep_awake_threads").value(keep_awake ? keep_awake->active() : 0);
  // The slow phase the timing metrics come from, and the same figures over
  // the whole timed section and over every set-up, for comparison. p99 is
  // reported here rather than as a metric: it moves with the share of rows
  // the host stalls (README.md, Steadiness).
  w.key("slow_slices").value(static_cast<std::uint64_t>(slow.slices));
  w.key("slow_rows").value(static_cast<std::uint64_t>(slow.ms.size()));
  w.key("slow_row_ms_p99").value(percentile(slow.ms, 0.99));
  w.key("whole_rows_per_s").value(compliant_rate(timed, checks));
  w.key("whole_row_ms_p50").value(percentile(timed_ms, 0.50));
  w.key("whole_row_ms_p99").value(percentile(timed_ms, 0.99));
  w.key("setups").value(static_cast<std::uint64_t>(setups.size()));
  w.key("slow_setups").value(static_cast<std::uint64_t>(slow_set.size()));
  w.key("all_setups_s_p50").value(
      setup_percentile(setups, &SetupTimes::total_s, 0.5));
  w.end_object();
  w.end_object();
  std::cout << w.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace perfbench
