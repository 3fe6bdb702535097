#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "fault/fault.hpp"

namespace lejit::fault {
namespace {

TEST(FaultInjector, DisarmedHooksAreNoOps) {
  Injector& inj = Injector::instance();
  ASSERT_FALSE(inj.armed());
  EXPECT_FALSE(inj.on_call(Site::kSolverCheck));
  EXPECT_FALSE(inject_unknown(Site::kSolverCheck));
  EXPECT_NO_THROW(inject(Site::kLmForward));
}

TEST(FaultInjector, ScopedPlanArmsAndDisarms) {
  {
    const ScopedPlan scoped{Plan{}};
    EXPECT_TRUE(Injector::instance().armed());
  }
  EXPECT_FALSE(Injector::instance().armed());
}

TEST(FaultInjector, ArmingZeroesCounts) {
  Plan plan;
  plan.site(Site::kSolverCheck).p_unknown = 1.0;
  {
    const ScopedPlan scoped{plan};
    EXPECT_TRUE(inject_unknown(Site::kSolverCheck));
    EXPECT_EQ(Injector::instance().counts().unknowns, 1);
  }
  const ScopedPlan again{plan};
  const Counts c = Injector::instance().counts();
  EXPECT_EQ(c.calls, 0);
  EXPECT_EQ(c.unknowns, 0);
}

TEST(FaultInjector, DecisionsAreDeterministicGivenSeed) {
  Plan plan;
  plan.seed = 42;
  plan.site(Site::kSolverCheck).p_unknown = 0.5;

  const auto run = [&] {
    std::vector<bool> decisions;
    const ScopedPlan scoped{plan};
    for (int i = 0; i < 200; ++i)
      decisions.push_back(inject_unknown(Site::kSolverCheck));
    return decisions;
  };
  const auto first = run();
  EXPECT_EQ(first, run()) << "same plan must replay bit-identically";

  Plan other = plan;
  other.seed = 43;
  std::vector<bool> reseeded;
  {
    const ScopedPlan scoped{other};
    for (int i = 0; i < 200; ++i)
      reseeded.push_back(inject_unknown(Site::kSolverCheck));
  }
  EXPECT_NE(first, reseeded) << "seed must actually steer the decisions";
}

TEST(FaultInjector, ProbabilitiesPartitionOneDraw) {
  Plan plan;
  plan.seed = 7;
  plan.site(Site::kLmForward) =
      SiteConfig{.p_unknown = 0.0, .p_throw = 0.3, .p_delay = 0.3};

  const ScopedPlan scoped{plan};
  const int n = 2000;
  int threw = 0;
  for (int i = 0; i < n; ++i) {
    try {
      inject(Site::kLmForward);
    } catch (const InjectedFault&) {
      ++threw;
    }
  }
  const Counts c = Injector::instance().counts();
  EXPECT_EQ(c.calls, n);
  EXPECT_EQ(c.throws, threw);
  EXPECT_EQ(c.unknowns, 0);
  // 0.3 ± generous slack over 2000 deterministic draws.
  EXPECT_GT(c.throws, n / 5);
  EXPECT_LT(c.throws, n / 2);
  EXPECT_GT(c.delays, n / 5);
  EXPECT_LT(c.delays, n / 2);
}

TEST(FaultInjector, DelayActuallyStalls) {
  Plan plan;
  plan.site(Site::kLmForward) =
      SiteConfig{.p_delay = 1.0, .delay_us = 2000};
  const ScopedPlan scoped{plan};
  const auto t0 = std::chrono::steady_clock::now();
  inject(Site::kLmForward);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count(),
            2000);
  EXPECT_EQ(Injector::instance().counts().delays, 1);
}

TEST(FaultInjector, InjectedFaultIsARuntimeError) {
  Plan plan;
  plan.site(Site::kLmForward).p_throw = 1.0;
  const ScopedPlan scoped{plan};
  // Catchable both precisely and through the generic recovery paths.
  EXPECT_THROW(inject(Site::kLmForward), InjectedFault);
  EXPECT_THROW(inject(Site::kLmForward), util::RuntimeError);
  EXPECT_THROW(inject(Site::kLmForward), std::exception);
}

TEST(FaultInjector, SiteNamesAreStable) {
  EXPECT_EQ(site_name(Site::kSolverCheck), "solver_check");
  EXPECT_EQ(site_name(Site::kLmForward), "lm_forward");
}

}  // namespace
}  // namespace lejit::fault
