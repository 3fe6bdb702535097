// Pluggable solver backends (DESIGN.md §12).
//
// The guided decoder used to hold a concrete smt::Solver; every check was an
// in-process call into minismt, which made one buggy or wedged check a
// single point of failure for the whole decode. `Backend` abstracts the
// session the decoder actually needs — declare variables, assert formulas,
// push/pop scopes, budgeted check-assuming, model extraction — so the solver
// substrate can be swapped without the decoder noticing:
//
//   MinismtBackend     the default: forwards to the in-process solver,
//                      byte-for-byte the pre-abstraction behavior.
//   SubprocessBackend  an external SMT-LIB2 solver (z3/cvc5/lejit_smtserve)
//                      in a child process over pipes (subprocess.hpp).
//   FailoverBackend    subprocess primary + minismt fallback: a crashed,
//                      hung, or garbled external solver degrades to the
//                      in-process answer instead of stalling the row.
//
// Verdicts stay the existing kSat/kUnsat/kUnknown, and Budget deadlines are
// honored by every backend — including across the subprocess's blocking
// pipe reads, which poll in slices so a wedged child can overshoot a
// deadline by at most one poll interval.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "smt/formula.hpp"
#include "smt/linexpr.hpp"
#include "smt/solver.hpp"

namespace lejit::smt {

enum class BackendKind { kMinismt, kSubprocess };

// Health accounting a Backend keeps about *itself* (solver verdict counts
// live in SolverStats). `faults` is the load-bearing field: FailoverBackend
// detects "this check failed for backend reasons, not solver reasons" by the
// fault count advancing across the call, and each fine-grained cause below
// also feeds an `smt.backend.*` obs counter.
struct BackendStats {
  std::int64_t checks = 0;           // check_assuming calls served
  std::int64_t faults = 0;           // checks lost to any backend failure
  std::int64_t timeouts = 0;         // … wall-clock deadline on the wire
  std::int64_t crashes = 0;          // … child died or write hit EPIPE
  std::int64_t protocol_errors = 0;  // … unparseable / truncated answer
  std::int64_t spawn_failures = 0;   // … could not (re)start the child
  std::int64_t respawns = 0;         // successful child restarts
  std::int64_t restored_lines = 0;   // session lines replayed on respawn
  std::int64_t degraded = 0;         // checks answered by a fallback backend

  BackendStats& operator+=(const BackendStats& o) {
    checks += o.checks;
    faults += o.faults;
    timeouts += o.timeouts;
    crashes += o.crashes;
    protocol_errors += o.protocol_errors;
    spawn_failures += o.spawn_failures;
    respawns += o.respawns;
    restored_lines += o.restored_lines;
    degraded += o.degraded;
    return *this;
  }
};

struct BackendConfig {
  BackendKind kind = BackendKind::kMinismt;
  // The in-process engine: MinismtBackend's solver, and the failover
  // fallback under a subprocess primary.
  SolverConfig solver{};

  // kSubprocess only ------------------------------------------------------
  std::string solver_path;  // binary to exec
  // Arguments after the binary, passed verbatim; empty means none. z3 and
  // cvc5 need flags to read SMT-LIB2 from stdin, which only
  // backend_config_from_spec fills in.
  std::vector<std::string> solver_args;
  // Wall-clock cap per check when the caller's Budget carries no deadline
  // (an external solver has no notion of minismt node budgets).
  std::int64_t check_timeout_ms = 2'000;
  // Child restarts allowed per session before the backend declares itself
  // permanently unhealthy; each respawn waits retry_backoff_ms doubled per
  // consecutive failure (capped, and always sliced against the deadline).
  int max_respawns = 3;
  std::int64_t retry_backoff_ms = 10;
  // Wrap the subprocess in a FailoverBackend over minismt (recommended; off
  // only in tests that probe the raw subprocess behavior).
  bool degrade_to_minismt = true;
};

class Backend {
 public:
  virtual ~Backend() = default;

  virtual std::string_view name() const noexcept = 0;

  // --- problem construction (mirrors smt::Solver) -----------------------
  virtual VarId add_var(std::string name, Int lo, Int hi) = 0;
  virtual int num_vars() const noexcept = 0;
  virtual Interval bounds(VarId v) const = 0;
  virtual void add(Formula f) = 0;
  virtual void push() = 0;
  virtual void pop() = 0;
  virtual std::size_t num_scopes() const noexcept = 0;

  // --- queries -----------------------------------------------------------
  virtual CheckResult check_assuming(std::span<const Formula> assumptions,
                                     const Budget& budget) = 0;
  CheckResult check(const Budget& budget = {}) {
    return check_assuming({}, budget);
  }

  // Witness value from the most recent kSat check; nullopt when no model is
  // available (no sat check yet, or the wire-level model reply was lost).
  // Callers must treat a missing witness as "no information", never as
  // infeasibility.
  virtual std::optional<Int> model_value(VarId v) = 0;

  // Sound over-approximation of v's feasible values under the current
  // assertions. Default: the declared domain (always sound). MinismtBackend
  // narrows it with the incremental base's propagated bounds.
  virtual Interval propagated_bounds(VarId v) { return bounds(v); }

  // Exact feasible [min, max] of v (empty ⇔ UNSAT), or nullopt when any
  // underlying check gives up. The default runs the same witness-narrowed
  // binary search as smt::Solver::try_feasible_interval on top of
  // check_assuming, so every probe inherits this backend's failover and
  // deadline behavior.
  virtual std::optional<Interval> try_feasible_interval(
      VarId v, std::span<const Formula> assumptions = {},
      const Budget& budget = {});

  // Solver-shaped statistics (subprocess backends synthesize check/unknown
  // counts and report zero nodes — external search effort is invisible).
  virtual SolverStats stats() const = 0;
  virtual BackendStats backend_stats() const { return {}; }

  // False once the backend can no longer serve checks (e.g. the subprocess
  // exhausted its respawn budget). FailoverBackend routes around it.
  virtual bool healthy() const noexcept { return true; }
};

// The in-process default: thin forwarding around smt::Solver.
class MinismtBackend final : public Backend {
 public:
  explicit MinismtBackend(SolverConfig config = {}) : solver_(config) {}

  std::string_view name() const noexcept override { return "minismt"; }
  VarId add_var(std::string name, Int lo, Int hi) override {
    return solver_.add_var(std::move(name), lo, hi);
  }
  int num_vars() const noexcept override { return solver_.num_vars(); }
  Interval bounds(VarId v) const override { return solver_.bounds(v); }
  void add(Formula f) override { solver_.add(std::move(f)); }
  void push() override { solver_.push(); }
  void pop() override { solver_.pop(); }
  std::size_t num_scopes() const noexcept override {
    return solver_.num_scopes();
  }
  CheckResult check_assuming(std::span<const Formula> assumptions,
                             const Budget& budget) override {
    last_sat_ = false;
    const CheckResult r = solver_.check_assuming(assumptions, budget);
    last_sat_ = r == CheckResult::kSat;
    return r;
  }
  std::optional<Int> model_value(VarId v) override {
    if (!last_sat_) return std::nullopt;
    return solver_.model_value(v);
  }
  Interval propagated_bounds(VarId v) override {
    return solver_.propagated_bounds(v);
  }
  std::optional<Interval> try_feasible_interval(
      VarId v, std::span<const Formula> assumptions,
      const Budget& budget) override {
    // Forward instead of using the generic search: identical probe order,
    // identical node accounting, byte-identical decoder behavior.
    const std::optional<Interval> r =
        solver_.try_feasible_interval(v, assumptions, budget);
    last_sat_ = r.has_value() && !r->is_empty();
    return r;
  }
  SolverStats stats() const override { return solver_.stats(); }

  Solver& solver() noexcept { return solver_; }

 private:
  Solver solver_;
  bool last_sat_ = false;
};

// The degradation ladder: a primary backend (in practice the subprocess)
// with an in-process fallback mirroring every state operation. Checks go to
// the primary; when a check fails *for backend reasons* — the primary's
// fault counter advanced during the call, or it is permanently unhealthy —
// the same check is answered by the fallback and counted in
// `backend_stats().degraded` / the `smt.backend.degraded` obs counter. A
// genuine kUnknown verdict (budget exhaustion) is not a fault and is
// returned as-is: degradation is about availability, not verdict quality.
class FailoverBackend final : public Backend {
 public:
  FailoverBackend(std::unique_ptr<Backend> primary,
                  std::unique_ptr<Backend> fallback);

  std::string_view name() const noexcept override { return "failover"; }
  VarId add_var(std::string name, Int lo, Int hi) override;
  int num_vars() const noexcept override { return fallback_->num_vars(); }
  Interval bounds(VarId v) const override { return fallback_->bounds(v); }
  void add(Formula f) override;
  void push() override;
  void pop() override;
  std::size_t num_scopes() const noexcept override {
    return fallback_->num_scopes();
  }
  CheckResult check_assuming(std::span<const Formula> assumptions,
                             const Budget& budget) override;
  std::optional<Int> model_value(VarId v) override;
  // Propagation is an in-process notion; the fallback mirrors the full
  // assertion stack, so its (sound) bounds serve both routes.
  Interval propagated_bounds(VarId v) override {
    return fallback_->propagated_bounds(v);
  }
  std::optional<Interval> try_feasible_interval(
      VarId v, std::span<const Formula> assumptions,
      const Budget& budget) override;
  SolverStats stats() const override;
  BackendStats backend_stats() const override;

  Backend& primary() noexcept { return *primary_; }
  Backend& fallback() noexcept { return *fallback_; }

 private:
  bool primary_usable() const noexcept;
  void note_degraded();
  void count_checks(std::int64_t served, std::int64_t primary_checks_before);

  std::unique_ptr<Backend> primary_;
  std::unique_ptr<Backend> fallback_;
  bool last_served_by_primary_ = false;
  // Checks answered on either route, each once: a primary attempt that
  // faulted and was answered again by the fallback is one check. The
  // smt.backend.checks obs counter moves with it.
  std::int64_t checks_ = 0;
  std::int64_t degraded_ = 0;
};

// Build a backend per `config`: kMinismt → MinismtBackend; kSubprocess →
// SubprocessBackend, wrapped in a FailoverBackend over minismt unless
// degrade_to_minismt is off.
std::unique_ptr<Backend> make_backend(const BackendConfig& config);

// Locate an external SMT-LIB2 solver binary: $LEJIT_SMT_SOLVER, then z3 and
// cvc5 on $PATH, then $LEJIT_SMTSERVE, then a `lejit_smtserve` next to
// `argv0`. Empty string when nothing is found.
std::string find_external_solver(std::string_view argv0 = {});

// Parse a `--smt-backend` spec: "minismt" (or ""), "auto" (external solver
// if find_external_solver succeeds, else minismt), "subprocess:<path>", or a
// bare path to a solver binary. Throws util::RuntimeError on anything else.
// The returned config carries default solver_args for recognized binaries
// (z3, cvc5).
BackendConfig backend_config_from_spec(std::string_view spec,
                                       std::string_view argv0 = {});

}  // namespace lejit::smt
