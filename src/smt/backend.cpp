#include "smt/backend.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "obs/metrics.hpp"
#include "smt/subprocess.hpp"
#include "util/error.hpp"

namespace lejit::smt {

namespace {

obs::Counter& backend_counter(const char* what) {
  return obs::MetricsRegistry::instance().counter(
      std::string("smt.backend.") + what);
}

}  // namespace

// Mirrors Solver::try_feasible_interval probe-for-probe, but on top of the
// virtual check_assuming/model_value so subprocess failover and deadline
// slicing apply to every probe. The only difference: a backend may fail to
// deliver a witness for a sat answer, in which case the search falls back to
// plain bisection bounds instead of witness narrowing (same result, more
// probes).
std::optional<Interval> Backend::try_feasible_interval(
    VarId v, std::span<const Formula> assumptions, const Budget& budget) {
  LEJIT_REQUIRE(v.index >= 0 && v.index < num_vars(), "unknown variable");
  std::vector<Formula> assume(assumptions.begin(), assumptions.end());

  const CheckResult first = check_assuming(assume, budget);
  if (first == CheckResult::kUnsat) return Interval::empty();
  if (first == CheckResult::kUnknown) return std::nullopt;
  const std::optional<Int> witness = model_value(v);

  bool gave_up = false;
  const auto sat_with = [&](const Formula& extra) {
    assume.push_back(extra);
    const CheckResult r = check_assuming(assume, budget);
    assume.pop_back();
    if (r == CheckResult::kUnknown) gave_up = true;
    return r == CheckResult::kSat;
  };

  // Smallest feasible value in [bounds.lo, witness].
  Int lb = bounds(v).lo;
  Int ub = witness ? *witness : bounds(v).hi;
  while (lb < ub && !gave_up) {
    const Int mid = lb + (ub - lb) / 2;
    if (sat_with(le(LinExpr(v), LinExpr(mid)))) {
      const std::optional<Int> m = model_value(v);
      ub = std::min(mid, m ? *m : mid);
    } else {
      lb = mid + 1;
    }
  }
  const Int min_v = lb;

  // Largest feasible value in [witness, bounds.hi]; min_v is known feasible,
  // so it anchors the search when the first witness was lost.
  lb = witness ? *witness : min_v;
  ub = bounds(v).hi;
  while (lb < ub && !gave_up) {
    const Int mid = lb + (ub - lb + 1) / 2;
    if (sat_with(ge(LinExpr(v), LinExpr(mid)))) {
      const std::optional<Int> m = model_value(v);
      lb = std::max(mid, m ? *m : mid);
    } else {
      ub = mid - 1;
    }
  }
  if (gave_up) return std::nullopt;
  return Interval{min_v, lb};
}

// --- FailoverBackend --------------------------------------------------------

FailoverBackend::FailoverBackend(std::unique_ptr<Backend> primary,
                                 std::unique_ptr<Backend> fallback)
    : primary_(std::move(primary)), fallback_(std::move(fallback)) {
  LEJIT_REQUIRE(primary_ && fallback_, "failover needs two backends");
}

VarId FailoverBackend::add_var(std::string name, Int lo, Int hi) {
  const VarId v = fallback_->add_var(name, lo, hi);
  const VarId p = primary_->add_var(std::move(name), lo, hi);
  LEJIT_REQUIRE(v == p, "failover backends disagree on variable ids");
  return v;
}

void FailoverBackend::add(Formula f) {
  fallback_->add(f);
  primary_->add(std::move(f));
}

void FailoverBackend::push() {
  fallback_->push();
  primary_->push();
}

void FailoverBackend::pop() {
  fallback_->pop();
  primary_->pop();
}

bool FailoverBackend::primary_usable() const noexcept {
  return primary_->healthy();
}

void FailoverBackend::note_degraded() {
  ++degraded_;
  backend_counter("degraded").inc();
}

// Adds `served` answered checks. The primary already counted each check it
// was asked in smt.backend.checks, so the counter gets the difference: it
// moves with backend_stats().checks, whichever route answered. The
// difference is negative when the probes of a faulted interval search
// outnumber those of the fallback's search that replaced it.
void FailoverBackend::count_checks(std::int64_t served,
                                   std::int64_t primary_checks_before) {
  checks_ += served;
  const std::int64_t counted =
      primary_->backend_stats().checks - primary_checks_before;
  if (served != counted) backend_counter("checks").add(served - counted);
}

CheckResult FailoverBackend::check_assuming(
    std::span<const Formula> assumptions, const Budget& budget) {
  const std::int64_t primary_checks = primary_->backend_stats().checks;
  CheckResult r = CheckResult::kUnknown;
  last_served_by_primary_ = false;
  if (primary_usable()) {
    const std::int64_t faults_before = primary_->backend_stats().faults;
    r = primary_->check_assuming(assumptions, budget);
    last_served_by_primary_ =
        primary_->backend_stats().faults == faults_before;
  }
  if (!last_served_by_primary_) {
    note_degraded();
    r = fallback_->check_assuming(assumptions, budget);
  }
  count_checks(1, primary_checks);
  return r;
}

std::optional<Int> FailoverBackend::model_value(VarId v) {
  return last_served_by_primary_ ? primary_->model_value(v)
                                 : fallback_->model_value(v);
}

// An interval search is a run of checks; `checks_` counts those of the
// backend whose interval is returned.
std::optional<Interval> FailoverBackend::try_feasible_interval(
    VarId v, std::span<const Formula> assumptions, const Budget& budget) {
  const std::int64_t primary_checks = primary_->backend_stats().checks;
  std::optional<Interval> r;
  std::int64_t probes = 0;
  const auto search = [&](Backend& b) {
    const std::int64_t before = b.stats().checks;
    r = b.try_feasible_interval(v, assumptions, budget);
    probes = b.stats().checks - before;
  };
  last_served_by_primary_ = false;
  if (primary_usable()) {
    const std::int64_t faults_before = primary_->backend_stats().faults;
    search(*primary_);
    last_served_by_primary_ =
        primary_->backend_stats().faults == faults_before;
  }
  if (!last_served_by_primary_) {
    note_degraded();
    search(*fallback_);
  }
  count_checks(probes, primary_checks);
  return r;
}

SolverStats FailoverBackend::stats() const {
  SolverStats s = primary_->stats();
  s += fallback_->stats();
  return s;
}

BackendStats FailoverBackend::backend_stats() const {
  BackendStats s = primary_->backend_stats();
  s += fallback_->backend_stats();
  s.checks = checks_;
  s.degraded += degraded_;
  return s;
}

// --- factory & discovery ----------------------------------------------------

std::unique_ptr<Backend> make_backend(const BackendConfig& config) {
  if (config.kind == BackendKind::kMinismt)
    return std::make_unique<MinismtBackend>(config.solver);
  auto sub = std::make_unique<SubprocessBackend>(config);
  if (!config.degrade_to_minismt) return sub;
  return std::make_unique<FailoverBackend>(
      std::move(sub), std::make_unique<MinismtBackend>(config.solver));
}

namespace {

bool executable(const std::string& path) {
  return !path.empty() && ::access(path.c_str(), X_OK) == 0;
}

std::string path_lookup(std::string_view name) {
  const char* path = std::getenv("PATH");
  if (path == nullptr) return {};
  std::string_view rest = path;
  while (!rest.empty()) {
    const std::size_t colon = rest.find(':');
    const std::string_view dir =
        colon == std::string_view::npos ? rest : rest.substr(0, colon);
    rest = colon == std::string_view::npos ? std::string_view{}
                                           : rest.substr(colon + 1);
    if (dir.empty()) continue;
    std::string candidate = std::string(dir) + "/" + std::string(name);
    if (executable(candidate)) return candidate;
  }
  return {};
}

std::string_view basename_of(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

}  // namespace

std::string find_external_solver(std::string_view argv0) {
  if (const char* env = std::getenv("LEJIT_SMT_SOLVER"); env && *env != '\0')
    return env;
  if (std::string z3 = path_lookup("z3"); !z3.empty()) return z3;
  if (std::string cvc5 = path_lookup("cvc5"); !cvc5.empty()) return cvc5;
  if (const char* env = std::getenv("LEJIT_SMTSERVE");
      env && executable(env))
    return env;
  if (const std::size_t slash = argv0.rfind('/');
      slash != std::string_view::npos) {
    std::string sibling =
        std::string(argv0.substr(0, slash + 1)) + "lejit_smtserve";
    if (executable(sibling)) return sibling;
  }
  return {};
}

BackendConfig backend_config_from_spec(std::string_view spec,
                                       std::string_view argv0) {
  BackendConfig config;
  std::string path;
  if (spec.empty() || spec == "minismt") {
    return config;
  } else if (spec == "auto") {
    path = find_external_solver(argv0);
    if (path.empty()) return config;  // nothing external: stay in-process
  } else if (spec.starts_with("subprocess:")) {
    path = std::string(spec.substr(std::string_view("subprocess:").size()));
    LEJIT_REQUIRE(!path.empty(), "--smt-backend=subprocess: needs a path");
  } else if (spec.find('/') != std::string_view::npos) {
    path = std::string(spec);
  } else {
    throw util::RuntimeError("unknown --smt-backend spec: " +
                             std::string(spec));
  }
  config.kind = BackendKind::kSubprocess;
  config.solver_path = std::move(path);
  const std::string_view base = basename_of(config.solver_path);
  if (base.find("z3") != std::string_view::npos) {
    config.solver_args = {"-in"};
  } else if (base.find("cvc5") != std::string_view::npos) {
    config.solver_args = {"--incremental", "--lang", "smt2"};
  }
  return config;
}

}  // namespace lejit::smt
