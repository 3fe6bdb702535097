// Serving throughput: the decode runtime (lejit::serve, DESIGN.md §13) vs
// sequential per-row decoding.
//
// The sweep decodes the same imputation workload through Server
// configurations of increasing (workers x batch) sessions and reports
// rows/sec, the LM forwards, and — the load-bearing claim — that every
// configuration's output is bit-identical to the sequential decode of the
// same (seed, row) pairs. Every session runs its own forwards, so the
// forward count does not depend on the configuration.
//
// The "serve" section is what tools/check_bench_json.py --compare-serve
// gates on (ctest serve_bench_smoke runs the --smoke sweep).
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/batch.hpp"
#include "harness.hpp"
#include "obs/json.hpp"
#include "serve/serve.hpp"
#include "telemetry/text.hpp"
#include "util/timer.hpp"

namespace {

using namespace lejit;
using bench::BenchEnv;
using telemetry::Window;

constexpr std::uint64_t kServeSeed = 11;

// --smoke: tiny environment + reduced row counts so CI can run the whole
// sweep (including the bit-identity legs) in seconds.
bool g_smoke = false;

const BenchEnv& env() {
  // Serve sessions decode through the transformer's KV-cached forward, so
  // this figure always trains the nano-GPT — with a shortened schedule in
  // smoke mode (an undertrained LM decodes worse rows, but throughput and
  // bit-identity do not care).
  static const BenchEnv e = bench::make_env(
      g_smoke ? bench::BenchEnvConfig{.racks = 8,
                                      .windows_per_rack = 30,
                                      .test_racks = 2,
                                      .use_transformer = true,
                                      .train_steps = 60}
              : bench::BenchEnvConfig{.use_transformer = true});
  return e;
}

int scaled(int rows) { return g_smoke ? std::max(8, rows / 4) : rows; }

// Imputation prompts whose ground truth is compatible with the mined rules.
const std::vector<std::string>& prompts() {
  static const std::vector<std::string> p = [] {
    std::vector<std::string> out;
    for (const Window& t : env().test)
      if (rules::violated_rules(env().mined, t).empty())
        out.push_back(telemetry::imputation_prompt(t));
    return out;
  }();
  return p;
}

std::vector<std::string> workload(int rows) {
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(rows));
  for (int i = 0; i < rows; ++i)
    out.push_back(prompts()[static_cast<std::size_t>(i) % prompts().size()]);
  return out;
}

// --- the sweep ---------------------------------------------------------------

struct ServeRun {
  int workers = 0;
  int batch = 0;
  std::size_t rows = 0;
  double seconds = 0.0;
  double rows_per_sec = 0.0;
  std::uint64_t batched_forwards = 0;
  std::uint64_t degraded_rows = 0;
  bool bit_identical = true;
};

ServeRun run_serve(int workers, int batch,
                   const std::vector<std::string>& rows,
                   const std::vector<std::string>& expect) {
  ServeRun run;
  run.workers = workers;
  run.batch = batch;
  run.rows = rows.size();

  core::DecoderConfig config{.mode = core::GuidanceMode::kFull};
  serve::Server server(*env().transformer, env().tokenizer, env().layout,
                       env().mined, config,
                       serve::ServeConfig{.workers = workers,
                                          .batch = batch,
                                          .seed = kServeSeed});
  util::Timer timer;
  const auto results = server.run(rows);
  run.seconds = timer.elapsed_seconds();
  run.rows_per_sec =
      run.seconds > 0.0 ? static_cast<double>(rows.size()) / run.seconds : 0.0;

  const serve::ServeStats stats = server.stats();
  run.batched_forwards = stats.batched_forwards;
  run.degraded_rows = stats.degraded_rows;
  for (std::size_t i = 0; i < results.size(); ++i)
    if (results[i].text != expect[i]) run.bit_identical = false;
  return run;
}

void print_serve_sweep(bench::JsonReport& report) {
  const int n_rows = scaled(48);
  const std::vector<std::string> rows = workload(n_rows);

  // Sequential reference: one decoder, same per-row RNG derivation
  // (core::row_rng) the server uses. This is the bit-identity oracle AND the
  // throughput baseline.
  std::vector<std::string> expect;
  double seq_seconds = 0.0;
  {
    core::GuidedDecoder dec(
        *env().transformer, env().tokenizer, env().layout, env().mined,
        core::DecoderConfig{.mode = core::GuidanceMode::kFull});
    util::Timer timer;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      util::Rng rng = core::row_rng(kServeSeed, i, 0);
      expect.push_back(dec.generate(rng, rows[i]).text);
    }
    seq_seconds = timer.elapsed_seconds();
  }
  const double seq_rows_per_sec =
      seq_seconds > 0.0 ? static_cast<double>(rows.size()) / seq_seconds : 0.0;

  std::vector<std::pair<int, int>> configs = {
      {1, 1}, {1, 2}, {1, 4}, {2, 2}, {2, 4}};
  if (!g_smoke) configs.push_back({4, 4});

  std::vector<ServeRun> runs;
  for (const auto& [workers, batch] : configs)
    runs.push_back(run_serve(workers, batch, rows, expect));

  bench::Table table(
      "Serving throughput — workers x batch sweep over " +
          std::to_string(n_rows) + " imputation rows (sequential baseline " +
          bench::fmt(seq_rows_per_sec, 1) + " rows/s)",
      {"workers x batch", "rows/s", "vs sequential", "forwards",
       "bit-identical"});
  bool all_identical = true;
  for (const ServeRun& r : runs) {
    all_identical = all_identical && r.bit_identical && r.degraded_rows == 0;
    table.add_row({std::to_string(r.workers) + " x " + std::to_string(r.batch),
                   bench::fmt(r.rows_per_sec, 1),
                   bench::fmt(seq_rows_per_sec > 0.0
                                  ? r.rows_per_sec / seq_rows_per_sec
                                  : 0.0,
                              2) + "x",
                   std::to_string(r.batched_forwards),
                   r.bit_identical ? "YES" : "NO *** MISMATCH ***"});
  }
  table.print();

  std::cout << "\nshape: every serve configuration bit-identical to "
               "sequential decode -> "
            << (all_identical ? "YES" : "NO *** MISMATCH ***") << "\n";

  obs::JsonWriter w;
  w.begin_object();
  w.key("rows").value(static_cast<std::int64_t>(rows.size()));
  w.key("seq_rows_per_sec").value(seq_rows_per_sec);
  w.key("bit_identical").value(all_identical);
  w.key("runs").begin_array();
  for (const ServeRun& r : runs) {
    w.begin_object();
    w.key("workers").value(r.workers);
    w.key("batch").value(r.batch);
    w.key("rows_per_sec").value(r.rows_per_sec);
    w.key("speedup_vs_sequential")
        .value(seq_rows_per_sec > 0.0 ? r.rows_per_sec / seq_rows_per_sec
                                      : 0.0);
    w.key("batched_forwards")
        .value(static_cast<std::int64_t>(r.batched_forwards));
    w.key("degraded_rows").value(static_cast<std::int64_t>(r.degraded_rows));
    w.key("bit_identical").value(r.bit_identical);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  report.add_raw("serve", w.str());
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      g_smoke = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  bench::JsonReport report("serve_throughput", &argc, argv);
  print_serve_sweep(report);
  report.add_env(env().config);
  report.write();
  return 0;
}
