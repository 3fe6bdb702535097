// SubprocessBackend lifecycle tests (DESIGN.md §12): a missing, dying,
// babbling, or wedged external solver must never crash or stall the caller —
// every pathology ends in a clean kUnknown (raw backend) or a degraded
// in-process answer (failover), with the incident visible in BackendStats.
//
// Misbehaving solvers are real processes: tiny /bin/sh scripts written to a
// temp directory, plus the bundled lejit_smtserve (path injected by CMake as
// LEJIT_SMTSERVE_PATH) for the healthy and fault-injected cases. The
// SubprocessDecode tests decode whole rows through a chaotic, an external
// (z3 or cvc5 when installed) and an absent solver, and compare them byte
// for byte with in-process decoding.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/decoder.hpp"
#include "fault/fault.hpp"
#include "lm/ngram.hpp"
#include "obs/timer.hpp"
#include "rules/checker.hpp"
#include "rules/miner.hpp"
#include "rules/rule.hpp"
#include "smt/backend.hpp"
#include "smt/subprocess.hpp"
#include "telemetry/generator.hpp"
#include "util/rng.hpp"

#ifndef LEJIT_SMTSERVE_PATH
#define LEJIT_SMTSERVE_PATH ""
#endif

namespace lejit::smt {
namespace {

// All fine-grained fault causes must add up to the total: every incident is
// accounted, none double-counted.
void expect_fault_accounting(const BackendStats& s) {
  EXPECT_EQ(s.faults,
            s.timeouts + s.crashes + s.protocol_errors + s.spawn_failures);
}

// Write an executable /bin/sh script posing as an SMT solver.
class FakeSolver {
 public:
  explicit FakeSolver(const std::string& body) {
    char tmpl[] = "/tmp/lejit_fake_solver_XXXXXX";
    const int fd = ::mkstemp(tmpl);
    if (fd >= 0) ::close(fd);
    path_ = tmpl;
    std::ofstream out(path_);
    out << "#!/bin/sh\n" << body;
    out.close();
    ::chmod(path_.c_str(), 0755);
  }
  ~FakeSolver() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

BackendConfig raw_config(std::string path) {
  BackendConfig cfg;
  cfg.kind = BackendKind::kSubprocess;
  cfg.solver_path = std::move(path);
  cfg.degrade_to_minismt = false;  // probe the raw backend
  cfg.retry_backoff_ms = 1;
  cfg.max_respawns = 2;
  return cfg;
}

// A tiny problem every test reuses: x in [0,10], x <= 5.
void seed_problem(Backend& b) {
  const VarId x = b.add_var("x", 0, 10);
  b.add(le(LinExpr(x), LinExpr(5)));
}

TEST(SubprocessLifecycle, AbsentBinaryIsACleanUnknown) {
  SubprocessBackend b(raw_config("/nonexistent/solver-binary"));
  seed_problem(b);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(b.check(), CheckResult::kUnknown) << "check " << i;
  const BackendStats s = b.backend_stats();
  EXPECT_EQ(s.checks, 5);
  EXPECT_EQ(s.spawn_failures, 5);
  EXPECT_EQ(s.crashes, 0);
  expect_fault_accounting(s);
  // Spawn failures burn the respawn budget too: the backend must eventually
  // declare itself unhealthy so FailoverBackend stops consulting it.
  EXPECT_FALSE(b.healthy());
  EXPECT_EQ(b.stats().checks, 5);  // solver-shaped stats stay consistent
  EXPECT_EQ(b.stats().unknowns, 5);
}

TEST(SubprocessLifecycle, ChildDyingMidCheckIsACrashNotASignal) {
  // Reads one line of the replayed session, then exits: every check loses
  // its child mid-flight. The SIGPIPE from writing to the dead pipe must be
  // swallowed (the test process surviving *is* the assertion).
  const FakeSolver solver("read line\nexit 0\n");
  SubprocessBackend b(raw_config(solver.path()));
  seed_problem(b);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(b.check(), CheckResult::kUnknown) << "check " << i;
  const BackendStats s = b.backend_stats();
  EXPECT_GT(s.crashes, 0);
  EXPECT_EQ(s.protocol_errors, 0);
  expect_fault_accounting(s);
  EXPECT_FALSE(b.healthy());  // respawn budget exhausted
}

TEST(SubprocessLifecycle, GarbageAnswerIsAProtocolError) {
  const FakeSolver solver(
      "while read line; do\n"
      "  case \"$line\" in\n"
      "    '(check-sat)') echo 'blargh' ;;\n"
      "  esac\n"
      "done\n");
  SubprocessBackend b(raw_config(solver.path()));
  seed_problem(b);
  EXPECT_EQ(b.check(), CheckResult::kUnknown);
  const BackendStats s = b.backend_stats();
  EXPECT_GT(s.protocol_errors, 0);
  EXPECT_EQ(s.timeouts, 0);
  expect_fault_accounting(s);
}

TEST(SubprocessLifecycle, TruncatedSatAnswerIsAProtocolError) {
  // The classic garble: a `(sat` with the rest of the line missing.
  const FakeSolver solver(
      "while read line; do\n"
      "  case \"$line\" in\n"
      "    '(check-sat)') echo '(sat' ;;\n"
      "  esac\n"
      "done\n");
  SubprocessBackend b(raw_config(solver.path()));
  seed_problem(b);
  EXPECT_EQ(b.check(), CheckResult::kUnknown);
  EXPECT_GT(b.backend_stats().protocol_errors, 0);
  expect_fault_accounting(b.backend_stats());
}

TEST(SubprocessLifecycle, WedgedChildHonorsTheDeadline) {
  // Consumes everything, answers nothing: the check blocks on read() until
  // the effective deadline. The sliced poll bounds the overshoot.
  const FakeSolver solver("while read line; do :; done\n");
  BackendConfig cfg = raw_config(solver.path());
  cfg.check_timeout_ms = 80;
  SubprocessBackend b(cfg);
  seed_problem(b);
  const std::int64_t t0 = obs::now_ns();
  EXPECT_EQ(b.check(), CheckResult::kUnknown);
  const std::int64_t elapsed_ms = (obs::now_ns() - t0) / 1'000'000;
  EXPECT_GE(elapsed_ms, 80);
  EXPECT_LT(elapsed_ms, 2'000);  // deadline + poll slice + CI slack, not 60 s
  EXPECT_GT(b.backend_stats().timeouts, 0);
  expect_fault_accounting(b.backend_stats());
}

TEST(SubprocessLifecycle, BudgetDeadlineCapsTheWait) {
  const FakeSolver solver("while read line; do :; done\n");
  BackendConfig cfg = raw_config(solver.path());
  cfg.check_timeout_ms = 60'000;  // the Budget, not the config, must bind
  SubprocessBackend b(cfg);
  seed_problem(b);
  const std::int64_t t0 = obs::now_ns();
  EXPECT_EQ(b.check(Budget::deadline_in_ms(60)), CheckResult::kUnknown);
  const std::int64_t elapsed_ms = (obs::now_ns() - t0) / 1'000'000;
  EXPECT_LT(elapsed_ms, 2'000);
  EXPECT_GT(b.backend_stats().timeouts, 0);
}

// --- against the real bundled server -----------------------------------------

bool smtserve_available() {
  return LEJIT_SMTSERVE_PATH[0] != '\0' &&
         ::access(LEJIT_SMTSERVE_PATH, X_OK) == 0;
}

TEST(SubprocessSmtserve, AnswersAndProducesModels) {
  if (!smtserve_available()) GTEST_SKIP() << "lejit_smtserve not built";
  BackendConfig cfg = raw_config(LEJIT_SMTSERVE_PATH);
  SubprocessBackend b(cfg);
  const VarId x = b.add_var("x", 0, 10);
  const VarId y = b.add_var("y", 0, 10);
  b.add(eq(LinExpr(x) + LinExpr(y), LinExpr(7)));
  ASSERT_EQ(b.check(), CheckResult::kSat);
  const auto mx = b.model_value(x);
  const auto my = b.model_value(y);
  ASSERT_TRUE(mx.has_value() && my.has_value());
  EXPECT_EQ(*mx + *my, 7);

  b.push();
  b.add(ge(LinExpr(x), LinExpr(9)));
  EXPECT_EQ(b.check(), CheckResult::kUnsat);
  b.pop();
  EXPECT_EQ(b.check(), CheckResult::kSat);
  EXPECT_EQ(b.backend_stats().faults, 0);
}

TEST(SubprocessSmtserve, InjectedKillRespawnsAndRestoresTheSession) {
  if (!smtserve_available()) GTEST_SKIP() << "lejit_smtserve not built";
  BackendConfig cfg = raw_config(LEJIT_SMTSERVE_PATH);
  cfg.max_respawns = 100;
  SubprocessBackend b(cfg);
  const VarId x = b.add_var("x", 0, 10);
  b.push();
  b.add(le(LinExpr(x), LinExpr(3)));
  ASSERT_EQ(b.check(), CheckResult::kSat);
  const pid_t before = b.child_pid();
  ASSERT_GT(before, 0);

  {
    fault::Plan plan;
    plan.site(fault::Site::kSubprocessKill).p_unknown = 1.0;
    const fault::ScopedPlan scoped{plan};
    // Every attempt (including the one bounded retry) is killed mid-check.
    EXPECT_EQ(b.check(), CheckResult::kUnknown);
  }
  const BackendStats mid = b.backend_stats();
  EXPECT_GT(mid.crashes, 0);
  expect_fault_accounting(mid);

  // Chaos off: the next check respawns, replays the session — including the
  // scoped assertion — and answers correctly again.
  std::vector<Formula> over{ge(LinExpr(x), LinExpr(5))};
  EXPECT_EQ(b.check_assuming(over, Budget{}), CheckResult::kUnsat);
  EXPECT_EQ(b.check(), CheckResult::kSat);
  const BackendStats after = b.backend_stats();
  EXPECT_GT(after.respawns, 0);
  EXPECT_GT(after.restored_lines, 0);
  EXPECT_NE(b.child_pid(), before);
  EXPECT_TRUE(b.healthy());
}

TEST(SubprocessSmtserve, InjectedGarbleIsAProtocolErrorThenRecovers) {
  if (!smtserve_available()) GTEST_SKIP() << "lejit_smtserve not built";
  BackendConfig cfg = raw_config(LEJIT_SMTSERVE_PATH);
  cfg.max_respawns = 100;
  SubprocessBackend b(cfg);
  seed_problem(b);
  {
    fault::Plan plan;
    plan.site(fault::Site::kSubprocessGarble).p_unknown = 1.0;
    const fault::ScopedPlan scoped{plan};
    EXPECT_EQ(b.check(), CheckResult::kUnknown);
  }
  EXPECT_GT(b.backend_stats().protocol_errors, 0);
  EXPECT_EQ(b.check(), CheckResult::kSat);
  EXPECT_TRUE(b.healthy());
}

TEST(SubprocessSmtserve, InjectedHangTimesOutFast) {
  if (!smtserve_available()) GTEST_SKIP() << "lejit_smtserve not built";
  BackendConfig cfg = raw_config(LEJIT_SMTSERVE_PATH);
  cfg.check_timeout_ms = 60;
  cfg.max_respawns = 100;
  SubprocessBackend b(cfg);
  seed_problem(b);
  {
    fault::Plan plan;
    plan.site(fault::Site::kSubprocessHang).p_unknown = 1.0;
    const fault::ScopedPlan scoped{plan};
    const std::int64_t t0 = obs::now_ns();
    EXPECT_EQ(b.check(), CheckResult::kUnknown);
    EXPECT_LT((obs::now_ns() - t0) / 1'000'000, 2'000);
  }
  EXPECT_GT(b.backend_stats().timeouts, 0);
  EXPECT_EQ(b.check(), CheckResult::kSat);
}

}  // namespace
}  // namespace lejit::smt

// --- end-to-end: decoder on a chaos-ridden subprocess backend ----------------

namespace lejit::core {
namespace {

struct Env {
  telemetry::Dataset dataset;
  telemetry::RowLayout layout;
  lm::CharTokenizer tokenizer{telemetry::row_alphabet()};
  std::unique_ptr<lm::NgramModel> model;
  rules::RuleSet rules;
  std::vector<telemetry::Window> windows;
  rules::RuleSet mined;
  std::vector<telemetry::Window> mined_prompts;  // windows `mined` admits
};

bool smtserve_available() {
  return LEJIT_SMTSERVE_PATH[0] != '\0' &&
         ::access(LEJIT_SMTSERVE_PATH, X_OK) == 0;
}

const Env& env() {
  static const Env e = [] {
    Env out;
    out.dataset = telemetry::generate_dataset(telemetry::GeneratorConfig{
        .num_racks = 8, .windows_per_rack = 40, .seed = 91});
    out.layout = telemetry::telemetry_row_layout(out.dataset.limits);
    out.windows = telemetry::all_windows(out.dataset);
    out.model = std::make_unique<lm::NgramModel>(
        out.tokenizer.vocab_size(), lm::NgramConfig{.order = 6});
    for (const auto& w : out.windows)
      out.model->observe(out.tokenizer.encode(telemetry::window_to_row(w)));
    out.rules = rules::manual_rules(out.layout, out.dataset.limits);
    out.mined =
        rules::mine_rules(out.windows, out.layout, out.dataset.limits).rules;
    for (const auto& w : out.windows)
      if (rules::violated_rules(out.mined, w).empty())
        out.mined_prompts.push_back(w);
    return out;
  }();
  return e;
}

// The acceptance bar for the whole backend layer: a 64-row decode with fault
// injection killing or hanging the subprocess on ~20% of checks must
// complete without a process crash, produce rows bit-identical to the
// minismt-only baseline (degradation falls back to the very solver the
// baseline runs), and account for every incident in the stats.
TEST(SubprocessDecode, SixtyFourRowsBitIdenticalUnderTwentyPercentChaos) {
  if (!smtserve_available()) GTEST_SKIP() << "lejit_smtserve not built";
  DecoderConfig base{.mode = GuidanceMode::kFull};
  GuidedDecoder baseline(*env().model, env().tokenizer, env().layout,
                         env().rules, base);

  DecoderConfig chaotic{.mode = GuidanceMode::kFull};
  chaotic.backend.kind = smt::BackendKind::kSubprocess;
  chaotic.backend.solver_path = LEJIT_SMTSERVE_PATH;
  chaotic.backend.check_timeout_ms = 50;  // injected hangs resolve quickly
  chaotic.backend.retry_backoff_ms = 1;
  chaotic.backend.max_respawns = 1 << 20;  // chaos must not exhaust the budget
  GuidedDecoder chaos_decoder(*env().model, env().tokenizer, env().layout,
                              env().rules, chaotic);

  fault::Plan plan;
  plan.seed = 20260808;
  plan.site(fault::Site::kSubprocessKill).p_unknown = 0.17;
  plan.site(fault::Site::kSubprocessHang).p_unknown = 0.03;
  const fault::ScopedPlan scoped{plan};

  std::int64_t degraded_rows = 0;
  for (int seed = 0; seed < 40; ++seed) {
    util::Rng a(static_cast<std::uint64_t>(seed));
    util::Rng b(static_cast<std::uint64_t>(seed));
    const DecodeResult rb = baseline.generate(a);
    const DecodeResult rc = chaos_decoder.generate(b);
    ASSERT_EQ(rc.text, rb.text) << "seed " << seed;
    ASSERT_EQ(rc.ok, rb.ok) << "seed " << seed;
    degraded_rows += rc.backend_degraded > 0 ? 1 : 0;
  }
  for (int seed = 0; seed < 24; ++seed) {
    const telemetry::Window& truth =
        env().windows[static_cast<std::size_t>(seed) % env().windows.size()];
    const std::string prompt = telemetry::imputation_prompt(truth);
    util::Rng a(static_cast<std::uint64_t>(7000 + seed));
    util::Rng b(static_cast<std::uint64_t>(7000 + seed));
    const DecodeResult rb = baseline.generate(a, prompt);
    const DecodeResult rc = chaos_decoder.generate(b, prompt);
    ASSERT_EQ(rc.text, rb.text) << "prompt seed " << seed;
    ASSERT_EQ(rc.ok, rb.ok) << "prompt seed " << seed;
    degraded_rows += rc.backend_degraded > 0 ? 1 : 0;
  }

  // With ~20% of checks faulted, chaos must actually have struck — and every
  // strike must be visible in the accounting.
  const smt::BackendStats s = chaos_decoder.backend_stats();
  EXPECT_GT(s.checks, 0);
  EXPECT_GT(s.degraded, 0);
  EXPECT_GT(s.respawns, 0);
  EXPECT_GT(degraded_rows, 0);
  EXPECT_EQ(s.faults,
            s.timeouts + s.crashes + s.protocol_errors + s.spawn_failures);
  EXPECT_GE(s.faults, s.degraded);  // every degraded check had >= 1 fault
  // The baseline saw no backend incidents at all.
  const smt::BackendStats sb = baseline.backend_stats();
  EXPECT_EQ(sb.faults, 0);
  EXPECT_EQ(sb.degraded, 0);
}

// 8 synthesis and 8 imputation rows under the mined rules, each decoded by
// `dec` and by the default in-process decoder from the same seed: every row
// must complete, byte-identical. Returns how many rows had a check degraded
// to the fallback.
int decode_mined_rows(GuidedDecoder& dec) {
  GuidedDecoder in_process(*env().model, env().tokenizer, env().layout,
                           env().mined,
                           DecoderConfig{.mode = GuidanceMode::kFull});
  int degraded_rows = 0;
  for (int i = 0; i < 16; ++i) {
    const std::string prompt =
        i < 8 ? std::string()
              : telemetry::imputation_prompt(env().mined_prompts.at(
                    static_cast<std::size_t>(i) % env().mined_prompts.size()));
    util::Rng a(static_cast<std::uint64_t>(300 + i));
    util::Rng b(static_cast<std::uint64_t>(300 + i));
    const DecodeResult want = in_process.generate(a, prompt);
    const DecodeResult got = dec.generate(b, prompt);
    EXPECT_TRUE(want.ok) << "row " << i;
    EXPECT_TRUE(got.ok) << "row " << i;
    EXPECT_EQ(got.text, want.text) << "row " << i;
    if (got.backend_degraded > 0) ++degraded_rows;
  }
  return degraded_rows;
}

// The solver find_external_solver picks (z3 or cvc5 where installed, else
// the bundled lejit_smtserve), configured as `--smt-backend` would configure
// it: z3 and cvc5 read SMT-LIB2 from stdin only with the flags
// backend_config_from_spec adds. It must answer every check itself.
TEST(SubprocessDecode, ExternalSolverDecodesBitIdentically) {
  const std::string solver = smt::find_external_solver(LEJIT_SMTSERVE_PATH);
  ASSERT_FALSE(solver.empty()) << "no external solver, no lejit_smtserve";
  DecoderConfig cfg{.mode = GuidanceMode::kFull};
  cfg.backend = smt::backend_config_from_spec("subprocess:" + solver);
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().mined,
                    cfg);
  EXPECT_EQ(decode_mined_rows(dec), 0) << solver;
  const smt::BackendStats s = dec.backend_stats();
  EXPECT_GT(s.checks, 0) << solver;
  EXPECT_EQ(s.degraded, 0) << solver;
  EXPECT_EQ(s.faults, 0) << solver;
}

// A solver that cannot be spawned: the backend gives up after one respawn
// and every row is answered by the in-process fallback, with the same bytes
// and every incident in the stats.
TEST(SubprocessDecode, AbsentSolverDegradesEveryRowBitIdentically) {
  DecoderConfig cfg{.mode = GuidanceMode::kFull};
  cfg.backend.kind = smt::BackendKind::kSubprocess;
  cfg.backend.solver_path = "/nonexistent/lejit-test-solver";
  cfg.backend.retry_backoff_ms = 1;
  cfg.backend.max_respawns = 1;
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().mined,
                    cfg);
  EXPECT_EQ(decode_mined_rows(dec), 16);
  const smt::BackendStats s = dec.backend_stats();
  EXPECT_GT(s.degraded, 0);
  EXPECT_GT(s.faults, 0);
}

}  // namespace
}  // namespace lejit::core
