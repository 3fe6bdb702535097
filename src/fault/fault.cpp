#include "fault/fault.hpp"

#include <chrono>
#include <string>
#include <thread>

#include "obs/metrics.hpp"

namespace lejit::fault {

std::string_view site_name(Site s) noexcept {
  switch (s) {
    case Site::kSolverCheck: return "solver_check";
    case Site::kLmForward: return "lm_forward";
    case Site::kSubprocessKill: return "subprocess_kill";
    case Site::kSubprocessHang: return "subprocess_hang";
    case Site::kSubprocessGarble: return "subprocess_garble";
    case Site::kCount: break;
  }
  return "?";
}

namespace {

// splitmix64 — a high-quality 64→64 mixer; decision k at a site is a pure
// function of (seed, site, k), independent of everything else in the process.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double uniform_of(std::uint64_t seed, Site site, std::uint64_t k) noexcept {
  const std::uint64_t h =
      mix(seed ^ mix(static_cast<std::uint64_t>(site) + 1) ^ mix(k));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

obs::Counter& injected_counter(const char* what) {
  return obs::MetricsRegistry::instance().counter(std::string("fault.") + what);
}

}  // namespace

Injector& Injector::instance() {
  static Injector injector;
  return injector;
}

void Injector::arm(Plan plan) {
  disarm();
  plan_ = std::move(plan);
  for (auto& c : call_index_) c.store(0, std::memory_order_relaxed);
  calls_.store(0, std::memory_order_relaxed);
  unknowns_.store(0, std::memory_order_relaxed);
  throws_.store(0, std::memory_order_relaxed);
  delays_.store(0, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

void Injector::disarm() noexcept {
  armed_.store(false, std::memory_order_release);
}

bool Injector::on_call(Site site) {
  if (!armed()) return false;
  const auto i = static_cast<std::size_t>(site);
  const SiteConfig& cfg = plan_.sites[i];
  if (cfg.p_unknown <= 0.0 && cfg.p_throw <= 0.0 && cfg.p_delay <= 0.0)
    return false;

  const std::uint64_t k =
      call_index_[i].fetch_add(1, std::memory_order_relaxed);
  calls_.fetch_add(1, std::memory_order_relaxed);
  const double u = uniform_of(plan_.seed, site, k);

  if (u < cfg.p_unknown) {
    unknowns_.fetch_add(1, std::memory_order_relaxed);
    injected_counter("injected_unknowns").inc();
    return true;
  }
  if (u < cfg.p_unknown + cfg.p_throw) {
    throws_.fetch_add(1, std::memory_order_relaxed);
    injected_counter("injected_throws").inc();
    throw InjectedFault(std::string("injected fault at ") +
                        std::string(site_name(site)) + " call #" +
                        std::to_string(k));
  }
  if (u < cfg.p_unknown + cfg.p_throw + cfg.p_delay) {
    delays_.fetch_add(1, std::memory_order_relaxed);
    injected_counter("injected_delays").inc();
    if (cfg.delay_us > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(cfg.delay_us));
  }
  return false;
}

Counts Injector::counts() const noexcept {
  Counts c;
  c.calls = calls_.load(std::memory_order_relaxed);
  c.unknowns = unknowns_.load(std::memory_order_relaxed);
  c.throws = throws_.load(std::memory_order_relaxed);
  c.delays = delays_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace lejit::fault
