// smt::Backend layer tests (DESIGN.md §12): MinismtBackend must be
// indistinguishable from a raw smt::Solver, the SMT-LIB2 emitter/parser must
// round-trip the dialect, backend specs must parse, and FailoverBackend must
// degrade cleanly when its primary cannot serve.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "smt/backend.hpp"
#include "smt/diff.hpp"
#include "smt/smtlib2.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lejit::smt {
namespace {

Formula random_constraint(util::Rng& rng, const std::vector<VarId>& vars) {
  const auto pick = [&] {
    return vars[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(vars.size()) - 1))];
  };
  const Int a = rng.uniform_int(-3, 3);
  const Int b = rng.uniform_int(-3, 3);
  const Int c = rng.uniform_int(-25, 25);
  const LinExpr lhs = a * LinExpr(pick()) + b * LinExpr(pick());
  switch (rng.uniform_int(0, 3)) {
    case 0: return le(lhs, LinExpr(c));
    case 1: return ge(lhs, LinExpr(c));
    case 2: return lor(le(lhs, LinExpr(c)), ge(lhs, LinExpr(c + 5)));
    default: return ne(lhs, LinExpr(c));
  }
}

// --- MinismtBackend ≡ raw Solver -------------------------------------------

TEST(MinismtBackend, MatchesRawSolverAcrossRandomSessions) {
  util::Rng rng(1337);
  for (int trial = 0; trial < 25; ++trial) {
    MinismtBackend backend;
    Solver solver;
    std::vector<VarId> vb, vs;
    for (int v = 0; v < 4; ++v) {
      const Int hi = rng.uniform_int(1, 20);
      vb.push_back(backend.add_var("v" + std::to_string(v), 0, hi));
      vs.push_back(solver.add_var("v" + std::to_string(v), 0, hi));
      ASSERT_EQ(vb.back().index, vs.back().index);
    }
    for (int i = 0; i < 3; ++i) {
      const Formula f = random_constraint(rng, vb);
      backend.add(f);
      solver.add(f);
    }
    backend.push();
    solver.push();
    const Formula scoped = random_constraint(rng, vb);
    backend.add(scoped);
    solver.add(scoped);
    for (int q = 0; q < 3; ++q) {
      std::vector<Formula> assumptions{random_constraint(rng, vb)};
      ASSERT_EQ(backend.check_assuming(assumptions, Budget{}),
                solver.check_assuming(assumptions))
          << "trial " << trial << " query " << q;
    }
    for (int v = 0; v < 4; ++v) {
      const auto bi = backend.try_feasible_interval(
          vb[static_cast<std::size_t>(v)], {}, Budget{});
      const auto si = solver.try_feasible_interval(
          vs[static_cast<std::size_t>(v)]);
      ASSERT_EQ(bi.has_value(), si.has_value()) << "trial " << trial;
      if (bi) {
        EXPECT_EQ(*bi, *si) << "trial " << trial << " var " << v;
      }
    }
    backend.pop();
    solver.pop();
    EXPECT_EQ(backend.num_scopes(), solver.num_scopes());
    EXPECT_EQ(backend.check(), solver.check());
  }
}

TEST(MinismtBackend, ModelValueOnlyAfterSat) {
  MinismtBackend b;
  const VarId x = b.add_var("x", 0, 10);
  EXPECT_FALSE(b.model_value(x).has_value());  // no check yet: no model
  b.add(eq(LinExpr(x), LinExpr(7)));
  ASSERT_EQ(b.check(), CheckResult::kSat);
  ASSERT_TRUE(b.model_value(x).has_value());
  EXPECT_EQ(*b.model_value(x), 7);
  std::vector<Formula> contradiction{eq(LinExpr(x), LinExpr(3))};
  ASSERT_EQ(b.check_assuming(contradiction, Budget{}), CheckResult::kUnsat);
  EXPECT_FALSE(b.model_value(x).has_value());  // unsat invalidates the model
}

// The generic Backend::try_feasible_interval (used by subprocess backends)
// must agree with minismt's exact native implementation.
TEST(Backend, GenericFeasibleIntervalMatchesNative) {
  // A backend that inherits the generic default by not overriding it.
  class GenericMinismt final : public Backend {
   public:
    std::string_view name() const noexcept override { return "generic"; }
    VarId add_var(std::string name, Int lo, Int hi) override {
      return inner_.add_var(std::move(name), lo, hi);
    }
    int num_vars() const noexcept override { return inner_.num_vars(); }
    Interval bounds(VarId v) const override { return inner_.bounds(v); }
    void add(Formula f) override { inner_.add(std::move(f)); }
    void push() override { inner_.push(); }
    void pop() override { inner_.pop(); }
    std::size_t num_scopes() const noexcept override {
      return inner_.num_scopes();
    }
    CheckResult check_assuming(std::span<const Formula> assumptions,
                               const Budget& budget) override {
      return inner_.check_assuming(assumptions, budget);
    }
    std::optional<Int> model_value(VarId v) override {
      return inner_.model_value(v);
    }
    SolverStats stats() const override { return inner_.stats(); }

   private:
    MinismtBackend inner_;
  };

  util::Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    GenericMinismt generic;
    Solver solver;
    std::vector<VarId> vars;
    for (int v = 0; v < 3; ++v) {
      const Int hi = rng.uniform_int(1, 30);
      vars.push_back(generic.add_var("v" + std::to_string(v), 0, hi));
      (void)solver.add_var("v" + std::to_string(v), 0, hi);
    }
    for (int i = 0; i < 2; ++i) {
      const Formula f = random_constraint(rng, vars);
      generic.add(f);
      solver.add(f);
    }
    for (int v = 0; v < 3; ++v) {
      const auto gi =
          generic.try_feasible_interval(vars[static_cast<std::size_t>(v)]);
      const auto si =
          solver.try_feasible_interval(vars[static_cast<std::size_t>(v)]);
      ASSERT_EQ(gi.has_value(), si.has_value()) << "trial " << trial;
      if (gi) {
        EXPECT_EQ(*gi, *si) << "trial " << trial << " var " << v;
      }
    }
  }
}

// --- SMT-LIB2 emit / parse ---------------------------------------------------

TEST(Smtlib2, EmitsTheClosedDialect) {
  const VarId x{0}, y{1};
  EXPECT_EQ(smtlib2::var_name(3), "x3");
  EXPECT_EQ(smtlib2::to_smtlib2(le(2 * LinExpr(x), LinExpr(5))),
            "(<= (+ (* 2 x0) (- 5)) 0)");
  EXPECT_EQ(smtlib2::to_smtlib2(ne(LinExpr(x), LinExpr(y))),
            "(not (= (+ x0 (* (- 1) x1)) 0))");
  EXPECT_EQ(smtlib2::to_smtlib2(land(le(LinExpr(x), LinExpr(1)),
                                     le(LinExpr(y), LinExpr(2)))),
            "(and (<= (+ x0 (- 1)) 0) (<= (+ x1 (- 2)) 0))");
  const std::string decls = smtlib2::declare_lines(2, 0, 9);
  EXPECT_NE(decls.find("(declare-const x2 Int)"), std::string::npos);
  EXPECT_NE(decls.find("(assert"), std::string::npos);  // the domain bound
}

TEST(Smtlib2, ParsesModelsIncludingNegatives) {
  const auto m = smtlib2::parse_model("((x0 3) (x1 (- 2)) (x2 0))");
  ASSERT_TRUE(m.has_value());
  ASSERT_EQ(m->size(), 3u);
  EXPECT_EQ((*m)[0], (std::pair<int, Int>{0, 3}));
  EXPECT_EQ((*m)[1], (std::pair<int, Int>{1, -2}));
  EXPECT_EQ((*m)[2], (std::pair<int, Int>{2, 0}));
  // Garbage and truncation must parse to nullopt, not crash.
  EXPECT_FALSE(smtlib2::parse_model("((x0 3").has_value());
  EXPECT_FALSE(smtlib2::parse_model("sat").has_value());
  EXPECT_FALSE(smtlib2::parse_model("((y9 1))").has_value());
}

TEST(Smtlib2, SexprParserHandlesNestingAndComments) {
  std::size_t pos = 0;
  const auto s =
      smtlib2::parse_sexpr("; comment\n(assert (<= (+ (* 1 x0) 2) 0))", &pos);
  ASSERT_TRUE(s.has_value());
  ASSERT_EQ(s->list.size(), 2u);
  EXPECT_EQ(s->list[0].atom, "assert");
  std::size_t bad = 0;
  EXPECT_FALSE(smtlib2::parse_sexpr("(sat", &bad).has_value());
}

// --- backend spec parsing ----------------------------------------------------

TEST(BackendSpec, ParsesTheDocumentedForms) {
  EXPECT_EQ(backend_config_from_spec("").kind, BackendKind::kMinismt);
  EXPECT_EQ(backend_config_from_spec("minismt").kind, BackendKind::kMinismt);

  const BackendConfig sub = backend_config_from_spec("subprocess:/opt/solver");
  EXPECT_EQ(sub.kind, BackendKind::kSubprocess);
  EXPECT_EQ(sub.solver_path, "/opt/solver");

  const BackendConfig bare = backend_config_from_spec("/usr/local/bin/z3");
  EXPECT_EQ(bare.kind, BackendKind::kSubprocess);
  ASSERT_FALSE(bare.solver_args.empty());  // z3 needs -in for stdin mode
  EXPECT_EQ(bare.solver_args[0], "-in");

  const BackendConfig cvc = backend_config_from_spec("subprocess:/bin/cvc5");
  EXPECT_EQ(cvc.solver_args,
            (std::vector<std::string>{"--incremental", "--lang", "smt2"}));

  EXPECT_THROW(backend_config_from_spec("bogus"), util::RuntimeError);
}

TEST(BackendSpec, AutoFallsBackToMinismtWhenNothingIsFound) {
  // Neutralize every discovery channel; PATH without z3/cvc5 and no
  // argv0-sibling smtserve leaves auto with nothing.
  const char* const saved_solver = std::getenv("LEJIT_SMT_SOLVER");
  const char* const saved_serve = std::getenv("LEJIT_SMTSERVE");
  const char* const saved_path = std::getenv("PATH");
  ::unsetenv("LEJIT_SMT_SOLVER");
  ::unsetenv("LEJIT_SMTSERVE");
  ::setenv("PATH", "/nonexistent-for-test", 1);
  const BackendConfig cfg =
      backend_config_from_spec("auto", "/nonexistent/cli");
  if (saved_solver) ::setenv("LEJIT_SMT_SOLVER", saved_solver, 1);
  if (saved_serve) ::setenv("LEJIT_SMTSERVE", saved_serve, 1);
  if (saved_path) ::setenv("PATH", saved_path, 1);
  EXPECT_EQ(cfg.kind, BackendKind::kMinismt);
}

// --- FailoverBackend ---------------------------------------------------------

TEST(FailoverBackend, AbsentBinaryDegradesEveryCheckToTheFallback) {
  // smt.backend.checks must count what backend_stats().checks counts.
  const bool metrics_were_on = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const obs::Counter& obs_checks =
      obs::MetricsRegistry::instance().counter("smt.backend.checks");
  const std::int64_t obs_before = obs_checks.value();

  BackendConfig cfg;
  cfg.kind = BackendKind::kSubprocess;
  cfg.solver_path = "/nonexistent/solver-binary";
  cfg.retry_backoff_ms = 1;
  const std::unique_ptr<Backend> b = make_backend(cfg);
  ASSERT_EQ(b->name(), "failover");

  const VarId x = b->add_var("x", 0, 10);
  b->add(le(LinExpr(x), LinExpr(5)));
  EXPECT_EQ(b->check(), CheckResult::kSat);  // answered, not crashed
  b->push();
  b->add(ge(LinExpr(x), LinExpr(8)));
  EXPECT_EQ(b->check(), CheckResult::kUnsat);
  b->pop();

  const BackendStats stats = b->backend_stats();
  EXPECT_EQ(stats.degraded, 2);  // both checks served by minismt
  EXPECT_GT(stats.spawn_failures, 0);
  EXPECT_GT(stats.faults, 0);

  // Past the respawn budget (max_respawns 3) the primary is unhealthy and no
  // longer asked. Every check is still answered, and counted once.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(b->check(), CheckResult::kSat);
  const BackendStats later = b->backend_stats();
  EXPECT_EQ(later.checks, 10);
  EXPECT_EQ(later.degraded, 10);
  EXPECT_EQ(obs_checks.value() - obs_before, later.checks);

  // The fallback's model is available after a degraded sat check.
  ASSERT_EQ(b->check(), CheckResult::kSat);
  const auto w = b->model_value(x);
  ASSERT_TRUE(w.has_value());
  EXPECT_LE(*w, 5);

  // Degraded feasible intervals are exact (the fallback mirrors all state),
  // and each probe of the search is a check.
  const auto iv = b->try_feasible_interval(x);
  ASSERT_TRUE(iv.has_value());
  EXPECT_EQ(*iv, (Interval{0, 5}));
  EXPECT_GT(b->backend_stats().checks, 11);
  EXPECT_EQ(obs_checks.value() - obs_before, b->backend_stats().checks);
  obs::set_metrics_enabled(metrics_were_on);
}

TEST(FailoverBackend, GenuineUnknownIsNotDegradation) {
  // A primary that answers kUnknown without faulting must have its verdict
  // passed through: degradation is about availability, not verdict quality.
  SolverConfig tiny;
  tiny.max_nodes = 1;  // starves search so checks give up
  auto primary = std::make_unique<MinismtBackend>(tiny);
  auto fallback = std::make_unique<MinismtBackend>();
  FailoverBackend fo(std::move(primary), std::move(fallback));
  const VarId x = fo.add_var("x", 0, 50);
  const VarId y = fo.add_var("y", 0, 50);
  // Disjunctive structure forces search (propagation alone can't decide it).
  fo.add(lor(eq(LinExpr(x) + LinExpr(y), LinExpr(17)),
             eq(LinExpr(x) - LinExpr(y), LinExpr(13))));
  const CheckResult r = fo.check();
  EXPECT_EQ(r, CheckResult::kUnknown);
  EXPECT_EQ(fo.backend_stats().degraded, 0);
}

// --- differential harness sanity --------------------------------------------

TEST(SmtDiff, MinismtAgainstItselfIsClean) {
  diff::Config cfg;
  cfg.queries = 200;
  cfg.seed = 9;
  const diff::Report report = diff::run(
      [] { return std::make_unique<MinismtBackend>(); },
      [] { return std::make_unique<MinismtBackend>(); }, cfg);
  EXPECT_TRUE(report.ok()) << report.first_mismatch;
  EXPECT_EQ(report.compared, 200);
  EXPECT_EQ(report.unknowns, 0);
  EXPECT_GT(report.sessions, 0);
}

}  // namespace
}  // namespace lejit::smt
