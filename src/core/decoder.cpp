#include "core/decoder.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <span>

#include "core/transition.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace lejit::core {

namespace {

// RAII guard: pops every solver scope opened during one row attempt — the
// attempt's own scope plus, when scope mirroring is on, one per pinned field.
class ScopeGuard {
 public:
  explicit ScopeGuard(smt::Backend& solver)
      : solver_(solver), mark_(solver.num_scopes()) {
    solver_.push();
  }
  ~ScopeGuard() {
    while (solver_.num_scopes() > mark_) solver_.pop();
  }
  ScopeGuard(const ScopeGuard&) = delete;
  ScopeGuard& operator=(const ScopeGuard&) = delete;

 private:
  smt::Backend& solver_;
  std::size_t mark_;
};

// Folds the row's DecodeStats into the process-wide metrics when the result
// goes out of scope — one flush point for every return path of generate().
class StatsFlush {
 public:
  StatsFlush(const DecodeResult& result, std::size_t num_rules)
      : result_(result), num_rules_(num_rules) {}
  ~StatsFlush() {
    if (!obs::metrics_enabled()) return;
    auto& registry = obs::MetricsRegistry::instance();
    static obs::Counter& c_rows = registry.counter("decode.rows");
    static obs::Counter& c_chars = registry.counter("decode.chars");
    static obs::Counter& c_lm_calls = registry.counter("decode.lm_calls");
    static obs::Counter& c_interventions =
        registry.counter("decode.interventions");
    static obs::Counter& c_dead_ends = registry.counter("decode.dead_ends");
    static obs::Counter& c_infeasible =
        registry.counter("decode.infeasible_prompts");
    static obs::Counter& c_unknowns = registry.counter("decode.unknowns");
    static obs::Counter& c_escalations =
        registry.counter("decode.escalations");
    static obs::Counter& c_recoveries = registry.counter("decode.recoveries");
    static obs::Counter& c_recovered =
        registry.counter("decode.recovered_rows");
    static obs::Counter& c_empty_mask = registry.counter("decode.empty_mask");
    static obs::Counter& c_budget =
        registry.counter("decode.budget_exhausted");
    static obs::Counter& c_guidance =
        registry.counter("decode.guidance_escalations");
    static obs::Counter& c_unresolved =
        registry.counter("decode.mask.unresolved");
    c_rows.inc();
    c_chars.add(result_.stats.chars);
    c_lm_calls.add(result_.stats.lm_calls);
    c_interventions.add(result_.stats.interventions);
    if (result_.dead_end) c_dead_ends.inc();
    if (result_.infeasible_prompt) c_infeasible.inc();
    c_unknowns.add(result_.stats.unknown_checks);
    c_escalations.add(result_.stats.escalations);
    c_recoveries.add(result_.recoveries);
    if (result_.ok && result_.recoveries > 0) c_recovered.inc();
    if (result_.reason == FailReason::kEmptyMask) c_empty_mask.inc();
    if (result_.reason == FailReason::kBudgetExhausted) c_budget.inc();
    if (result_.guidance_escalated) c_guidance.inc();
    c_unresolved.add(result_.stats.unresolved_candidates);
    static obs::Counter& c_table_hits =
        registry.counter("decode.plan.table_hits");
    static obs::Counter& c_sliced =
        registry.counter("decode.plan.sliced_queries");
    static obs::Counter& c_sliced_rules =
        registry.counter("decode.plan.sliced_rules");
    c_table_hits.add(result_.stats.plan_table_hits);
    c_sliced.add(result_.stats.plan_sliced_queries);
    c_sliced_rules.add(result_.stats.plan_sliced_rules);
    // Mean fraction of the rule set a sliced query asserted (vs. the full
    // set an unplanned query drags through propagation), cumulative.
    if (num_rules_ > 0 && c_sliced.value() > 0)
      registry.gauge("decode.plan.slice_rule_fraction")
          .set(static_cast<double>(c_sliced_rules.value()) /
               (static_cast<double>(c_sliced.value()) *
                static_cast<double>(num_rules_)));
  }
  StatsFlush(const StatsFlush&) = delete;
  StatsFlush& operator=(const StatsFlush&) = delete;

 private:
  const DecodeResult& result_;
  std::size_t num_rules_;
};

// Probability mass the mask removed at one step, in [0, 1].
obs::Histogram& removed_mass_histogram() {
  static obs::Histogram& h = obs::MetricsRegistry::instance().histogram(
      "decode.removed_mass", obs::HistogramOptions::linear(0.0, 1.0, 20));
  return h;
}

// Candidate feasibility answered by interval arithmetic / witnesses alone.
obs::Counter& hull_conclusive_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("decode.cache.hull_conclusive");
  return c;
}

}  // namespace

std::string_view fail_reason_name(FailReason r) noexcept {
  switch (r) {
    case FailReason::kNone: return "none";
    case FailReason::kInfeasiblePrompt: return "infeasible_prompt";
    case FailReason::kDeadEnd: return "dead_end";
    case FailReason::kEmptyMask: return "empty_mask";
    case FailReason::kBudgetExhausted: return "budget_exhausted";
    case FailReason::kFault: return "fault";
  }
  return "?";
}

// Position within the row syntax: literal prefix of field `field`, then its
// digits, ..., then the row suffix.
struct GuidedDecoder::Walk {
  int field = 0;
  std::size_t prefix_pos = 0;
  DigitPrefix digits{};
  std::size_t suffix_pos = 0;

  bool in_suffix(const telemetry::RowLayout& layout) const {
    return field >= layout.num_fields();
  }
  bool done(const telemetry::RowLayout& layout) const {
    return in_suffix(layout) && suffix_pos >= layout.suffix.size();
  }
  bool in_digits(const telemetry::RowLayout& layout) const {
    return !in_suffix(layout) &&
           prefix_pos >=
               layout.fields[static_cast<std::size_t>(field)].prefix.size();
  }
  // The literal character that terminates the current field's digits.
  char terminator(const telemetry::RowLayout& layout) const {
    if (field + 1 < layout.num_fields())
      return layout.fields[static_cast<std::size_t>(field) + 1].prefix.front();
    return layout.suffix.front();
  }

  // A field whose digits one step terminated.
  struct Completed {
    int field;
    DigitPrefix digits;
  };
  // Consumes one character of the row syntax; returns the field it
  // terminated, if any.
  std::optional<Completed> step(const telemetry::RowLayout& layout, char c) {
    if (in_suffix(layout)) {
      LEJIT_ASSERT(layout.suffix[suffix_pos] == c, "suffix mismatch");
      ++suffix_pos;
      return std::nullopt;
    }
    const auto& spec = layout.fields[static_cast<std::size_t>(field)];
    if (prefix_pos < spec.prefix.size()) {
      LEJIT_ASSERT(spec.prefix[prefix_pos] == c, "prefix mismatch");
      ++prefix_pos;
      return std::nullopt;
    }
    if (c >= '0' && c <= '9') {
      digits = digits.extended(c - '0');
      return std::nullopt;
    }
    // Any other character terminates the field.
    LEJIT_ASSERT(!digits.empty(), "field terminated without digits");
    LEJIT_ASSERT(c == terminator(layout),
                 "terminator opens neither the next field nor the suffix");
    const Completed done{field, digits};
    ++field;
    digits = DigitPrefix{};
    if (field < layout.num_fields())
      prefix_pos = 1;
    else
      suffix_pos = 1;
    return done;
  }
};

GuidedDecoder::GuidedDecoder(const lm::LanguageModel& model,
                             const lm::CharTokenizer& tokenizer,
                             const telemetry::RowLayout& layout,
                             rules::RuleSet rules, DecoderConfig config)
    : model_(model),
      tokenizer_(tokenizer),
      layout_(layout),
      rules_(std::move(rules)),
      config_(config),
      solver_([&config] {
        // The feasibility cache and the solver's incremental base are one
        // feature: both reuse work across the walk's push/pop scopes, and
        // the cache's hull short-circuit reads the base's propagated bounds.
        smt::BackendConfig bc = config.backend;
        bc.solver = config.solver;
        bc.solver.incremental = config.cache;
        return smt::make_backend(bc);
      }()) {
  LEJIT_REQUIRE(model.vocab_size() == tokenizer.vocab_size(),
                "model and tokenizer vocabulary sizes differ");
  for (const char c : telemetry::row_alphabet())
    LEJIT_REQUIRE(tokenizer.has_char(c),
                  "tokenizer does not cover the row alphabet");
  for (const auto& f : layout_.fields)
    LEJIT_REQUIRE(!f.prefix.empty(), "layout field without prefix literal");
  LEJIT_REQUIRE(!layout_.suffix.empty(), "layout without row suffix");
  vars_ = rules::declare_fields(*solver_, layout_);
  rules::assert_rules(*solver_, rules_);

  if (config_.lint_on_load) {
    const obs::Span span(obs::Phase::kLint);
    lint::Report report = lint::analyze(rules_, layout_, config_.lint);
    if (!report.ok())
      throw util::RuntimeError("rule-set lint failed (lint_on_load):\n" +
                               lint::to_text(report));
    lint_report_ = std::move(report);
  }
  if (config_.cache && lint_report_) {
    // Hand lint's static field hulls to the cache: their exact bounds and
    // witnesses serve the attempt-start fingerprint directly, and their
    // bounds tighten every other fingerprint's propagated fallback.
    std::vector<FeasibilityCache::Hull> hulls(lint_report_->hulls.size());
    for (std::size_t f = 0; f < hulls.size(); ++f) {
      const lint::FieldHull& h = lint_report_->hulls[f];
      hulls[f].bounds = h.bounds;
      hulls[f].exact = h.exact;
      for (const Int w : h.witnesses) hulls[f].add_witness(w);
    }
    cache_.seed_static_hulls(std::move(hulls));
  }

  if (config_.plan) {
    const std::uint64_t expected = plan::rule_set_fingerprint(rules_, layout_);
    if (config_.plan->fingerprint != expected)
      throw util::RuntimeError(
          "stale decode plan: its fingerprint does not match this rule set "
          "and layout (recompile with `lejit_cli plan`)");
    plan_ = std::move(config_.plan);
  } else if (config_.compile_plan) {
    plan_ = plan::compile(rules_, layout_, config_.plan_config);
  }
  if (plan_) {
    // The sliced hot path only engages for kFull look-ahead (the mode whose
    // per-candidate queries it accelerates) on layouts small enough for the
    // field bitmasks; everywhere else the plan rides along inert.
    plan_engaged_ = plan_->active() && config_.mode == GuidanceMode::kFull &&
                    layout_.num_fields() <= 64 &&
                    plan_->num_fields == layout_.num_fields() &&
                    plan_->field_cluster.size() ==
                        static_cast<std::size_t>(layout_.num_fields()) &&
                    plan_->num_rules == rules_.size();
    if (plan_engaged_) {
      rule_field_mask_.reserve(rules_.size());
      for (const rules::Rule& r : rules_.rules) {
        std::uint64_t m = 0;
        for (const int f : rules::referenced_fields(r.formula))
          if (f >= 0 && f < layout_.num_fields())
            m |= std::uint64_t{1} << static_cast<unsigned>(f);
        rule_field_mask_.push_back(m);
      }
    }
  }
}

smt::SolverStats GuidedDecoder::solver_stats() const {
  smt::SolverStats total = solver_->stats();
  total += retired_cluster_stats_;
  for (const auto& s : cluster_solvers_)
    if (s) total += s->stats();
  return total;
}

smt::BackendStats GuidedDecoder::backend_stats() const {
  smt::BackendStats total = solver_->backend_stats();
  total += retired_cluster_backend_stats_;
  for (const auto& s : cluster_solvers_)
    if (s) total += s->backend_stats();
  return total;
}

void GuidedDecoder::ensure_sliced_solvers(std::uint64_t prompt_fields) {
  if (slice_prompt_mask_ == prompt_fields) return;
  slice_prompt_mask_ = prompt_fields;
  for (const auto& s : cluster_solvers_) {
    if (!s) continue;
    retired_cluster_stats_ += s->stats();
    retired_cluster_backend_stats_ += s->backend_stats();
  }
  cluster_solvers_.clear();
  cluster_live_rules_.assign(plan_->clusters.size(), 0);
  smt::BackendConfig bc = config_.backend;
  bc.solver = config_.solver;
  bc.solver.incremental = config_.cache;
  for (const plan::Cluster& cluster : plan_->clusters) {
    // A rule whose every referenced field the prompt pins is fully decided
    // by the prompt values; the attempt's prompt feasibility check (run on
    // the full solver) proves it satisfied, so the slice can drop it.
    std::vector<std::size_t> live;
    for (const std::size_t r : cluster.rules)
      if ((rule_field_mask_[r] & ~prompt_fields) != 0) live.push_back(r);
    if (live.empty()) {
      cluster_solvers_.push_back(nullptr);
      continue;
    }
    std::unique_ptr<smt::Backend> solver = smt::make_backend(bc);
    // Same declaration order as the constructor, so VarIds align with vars_.
    (void)rules::declare_fields(*solver, layout_);
    for (const std::size_t r : live) solver->add(rules_.rules[r].formula);
    cluster_live_rules_[cluster_solvers_.size()] =
        static_cast<std::int64_t>(live.size());
    cluster_solvers_.push_back(std::move(solver));
  }
}

DecodeResult GuidedDecoder::generate(util::Rng& rng, std::string_view prompt) {
  DecodeResult result;
  const StatsFlush flush(result, rules_.size());
  // Per-row degradation accounting: stamp the delta of fallback-served
  // checks into the result on every return path (destroyed before `flush`,
  // so the metrics flush could read it if it ever needs to). A degraded row
  // that also failed says so in fail_detail.
  struct DegradedStamp {
    const GuidedDecoder& decoder;
    DecodeResult& r;
    std::int64_t before;
    ~DegradedStamp() {
      r.backend_degraded = decoder.backend_stats().degraded - before;
      if (r.backend_degraded > 0 && !r.ok) {
        if (!r.fail_detail.empty()) r.fail_detail += "; ";
        r.fail_detail += std::to_string(r.backend_degraded) +
                         " solver check(s) degraded to the in-process "
                         "fallback backend";
      }
    }
  } degraded_stamp{*this, result, backend_stats().degraded};
  const std::int64_t checks_before = solver_stats().checks;

  // --- unguided mode: free-run the LM until a newline -----------------------
  if (config_.mode == GuidanceMode::kNone) {
    std::vector<int> context = tokenizer_.encode(prompt);
    std::string text(prompt);
    const auto newline = tokenizer_.newline_id();
    for (int step = 0; step < config_.max_free_tokens; ++step) {
      const std::vector<float> logits = [&] {
        const obs::Span span(obs::Phase::kLmForward);
        return model_.logits(context);
      }();
      ++result.stats.lm_calls;
      const int tok = [&] {
        const obs::Span span(obs::Phase::kSampling);
        return lm::sample_token(logits, config_.sampler, rng);
      }();
      if (newline && tok == *newline) break;
      context.push_back(tok);
      text.push_back(tokenizer_.decode_char(tok));
      ++result.stats.chars;
    }
    result.text = text;
    result.window = telemetry::parse_row(text, layout_);
    result.ok = result.window.has_value();
    result.stats.solver_checks = solver_stats().checks - checks_before;
    return result;
  }

  // --- guided modes: walk the row syntax, with budgets and recovery ----------
  const ResilienceConfig& res = config_.resilience;
  const int vocab = tokenizer_.vocab_size();
  // Checked before any syntax walk, so a bad prompt is a precondition error
  // rather than a literal mismatch inside the walk.
  for (const char c : prompt)
    LEJIT_REQUIRE(tokenizer_.has_char(c), "prompt character outside alphabet");

  // Per-row ceilings, spanning every recovery attempt of this row.
  const std::int64_t row_deadline_ns =
      res.row_deadline_ms > 0
          ? obs::now_ns() + res.row_deadline_ms * 1'000'000
          : 0;
  const std::int64_t row_nodes_start = solver_stats().nodes;
  const auto row_budget_overrun = [&]() -> std::optional<std::string> {
    if (row_deadline_ns != 0 && obs::now_ns() >= row_deadline_ns)
      return "row deadline (" + std::to_string(res.row_deadline_ms) +
             " ms) exceeded";
    if (res.row_max_nodes > 0 &&
        solver_stats().nodes - row_nodes_start > res.row_max_nodes)
      return "row node budget (" + std::to_string(res.row_max_nodes) +
             ") exceeded";
    return std::nullopt;
  };

  // Budget for one solver call at escalation round `round` (0 = base): the
  // per-check node cap and deadline grow by escalation_factor per round, and
  // the per-row deadline caps everything.
  const auto check_budget = [&](int round) {
    std::int64_t factor = 1;
    for (int i = 0; i < round; ++i) factor *= res.escalation_factor;
    smt::Budget b;
    const std::int64_t base_nodes =
        res.check_max_nodes > 0 ? res.check_max_nodes
                                : config_.solver.max_nodes;
    b.max_nodes = base_nodes * factor;
    if (res.check_deadline_ms > 0)
      b.deadline_ns =
          obs::now_ns() + res.check_deadline_ms * factor * 1'000'000;
    if (row_deadline_ns != 0 &&
        (b.deadline_ns == 0 || row_deadline_ns < b.deadline_ns))
      b.deadline_ns = row_deadline_ns;
    return b;
  };

  // Caching applies to the solver-guided modes only; the fingerprint tracks
  // the pins/bans the current attempt has asserted (reset per attempt) so
  // cache keys are specific to the exact problem the solver would see.
  const bool use_cache =
      config_.cache && (config_.mode == GuidanceMode::kFull ||
                        config_.mode == GuidanceMode::kHull);
  std::uint64_t fp = kPinFingerprintSeed;

  // --- decode plan: prompt-shaped query slicing + digit tables (kFull) ------
  // A dry syntax walk over the prompt (no solver, no pins) finds the set of
  // fields the prompt will pin, which determines each cluster's "live" rule
  // slice for this row; the sliced solvers are rebuilt only when that set
  // changes across rows. A field whose digits begin inside the prompt is
  // remembered: its prompt-chosen prefix was never mask-validated, so table
  // always-bits (which quantify over validated prefixes only) must not serve
  // it.
  const bool plan_mode = plan_engaged_;
  std::uint64_t prompt_fields = 0;
  int prompt_partial_field = -1;
  if (plan_mode) {
    Walk pw;
    for (const char c : prompt)
      if (const auto done = pw.step(layout_, c))
        prompt_fields |= std::uint64_t{1} << static_cast<unsigned>(done->field);
    if (pw.in_digits(layout_) && !pw.digits.empty())
      prompt_partial_field = pw.field;
    ensure_sliced_solvers(prompt_fields);
  }

  // How an inconclusive result reads once escalation is exhausted.
  const bool unknown_is_feasible = res.on_unknown == UnknownPolicy::kFeasible;

  // The last two stages of every feasibility question: the verdict memo
  // (cache on), then one live check on `solver` (the full one or a plan
  // cluster slice) with kUnknown escalated per the policy. Sets `live_sat`
  // only when a live check answered kSat, so callers harvest witnesses from
  // fresh models and never from memo hits.
  const auto admitted = [&](smt::Backend& solver,
                            std::span<const smt::Formula> fs, QueryKind kind,
                            std::uint64_t key_fp, int field, Int value,
                            int digits, bool* live_sat = nullptr) {
    if (use_cache) {
      if (const auto v = cache_.lookup(kind, key_fp, field, value, digits)) {
        if (*v != smt::CheckResult::kUnknown)
          return *v == smt::CheckResult::kSat;
        ++result.stats.unknown_checks;
        return unknown_is_feasible;
      }
    }
    smt::CheckResult r = solver.check_assuming(fs, check_budget(0));
    for (int e = 1; r == smt::CheckResult::kUnknown; ++e) {
      ++result.stats.unknown_checks;
      if (res.on_unknown != UnknownPolicy::kEscalate || e > res.max_escalations)
        break;
      // An escalated retry gets an *enlarged* budget, so launching one after
      // the row deadline has already passed could overshoot the row budget
      // by a whole check. Re-check the deadline between rounds; check_budget
      // still caps each round's own deadline at the row deadline.
      if (row_deadline_ns != 0 && obs::now_ns() >= row_deadline_ns) break;
      ++result.stats.escalations;
      r = solver.check_assuming(fs, check_budget(e));
    }
    if (use_cache) cache_.store(kind, key_fp, field, value, digits, r);
    if (live_sat) *live_sat = r == smt::CheckResult::kSat;
    if (r == smt::CheckResult::kUnknown) return unknown_is_feasible;
    return r == smt::CheckResult::kSat;
  };

  // Policy-mediated hull query (kHull mode). A conclusive hull — cached or
  // freshly computed — is the exact feasible range. When even the escalated
  // budget cannot pin it down, degrade to the static domain — a superset of
  // the true hull, so masking stays permissive and the post-pin feasibility
  // check (plus dead-end recovery) catches what slips through. Under
  // kInfeasible the field is refused outright instead. Degraded hulls are
  // never cached.
  const auto hull_under_policy = [&](smt::VarId var,
                                     int field) -> smt::Interval {
    if (use_cache) {
      if (const auto cached = cache_.find_hull(fp, field);
          cached && cached->exact)
        return cached->bounds;
    }
    std::optional<smt::Interval> h =
        solver_->try_feasible_interval(var, {}, check_budget(0));
    for (int e = 1; !h; ++e) {
      ++result.stats.unknown_checks;
      if (res.on_unknown != UnknownPolicy::kEscalate || e > res.max_escalations)
        break;
      // Same deadline re-check as admitted(): no enlarged retry after the row
      // deadline already expired.
      if (row_deadline_ns != 0 && obs::now_ns() >= row_deadline_ns) break;
      ++result.stats.escalations;
      h = solver_->try_feasible_interval(var, {}, check_budget(e));
    }
    if (h) {
      if (use_cache) {
        FeasibilityCache::Hull entry;
        entry.bounds = *h;
        entry.exact = true;
        cache_.store_hull(fp, field, entry);
      }
      return *h;
    }
    if (obs::metrics_enabled())
      obs::MetricsRegistry::instance().counter("decode.hull_degraded").inc();
    return res.on_unknown == UnknownPolicy::kInfeasible ? smt::Interval::empty()
                                                        : solver_->bounds(var);
  };

  // Recovery state shared across attempts.
  GuidanceMode mode = config_.mode;
  std::string resume;  // generated chars to replay on retry (prompt excluded)
  std::vector<std::pair<int, Int>> banned;  // (field, value) dead-end bans

  enum class Outcome {
    kComplete,
    kInfeasiblePrompt,
    kDeadEnd,
    kEmptyMask,
    kRowBudget,
  };
  struct AttemptEnd {
    Outcome outcome;
    int dead_field = -1;  // field whose pin caused the dead end …
    Int dead_value = 0;   // … the value it pinned to …
    int dead_digits = 0;  // … and how many digit chars that value spent
    std::string note;
  };

  // Per-token buffers of the current step: what is known of each token,
  // and the boolean mask sample_token reads once everything is decided.
  std::vector<lm::TokenState> states(static_cast<std::size_t>(vocab));
  const auto mask_buf =
      std::make_unique<bool[]>(static_cast<std::size_t>(vocab));
  const std::span<bool> mask(mask_buf.get(), static_cast<std::size_t>(vocab));

  // One decode attempt under the current mode/resume/ban state. Writes
  // result.text (and, on completion, window/ok) before returning.
  const auto run_attempt = [&]() -> AttemptEnd {
    const ScopeGuard scope(*solver_);
    Walk walk;
    std::string text;
    std::vector<int> context;
    const bool solver_guided =
        mode == GuidanceMode::kFull || mode == GuidanceMode::kHull;
    // Interval hull of the current field's feasible set (kHull mode only),
    // computed lazily when the field's digits begin and dropped when the
    // field completes.
    std::optional<smt::Interval> field_hull;
    // kFull + cache: hull/witness state of the field currently being decoded,
    // loaded from the cross-row cache at field start and written back (with
    // any witnesses gathered from sat checks) when the field pins.
    std::optional<FeasibilityCache::Hull> full_hull;
    std::uint64_t full_hull_fp = 0;
    int full_hull_field = -1;
    // Set when a kHull field completion must be validated against the rules.
    bool pending_feasibility_check = false;
    // Most recently pinned field, for the dead-end ban/rewind decision.
    int last_field = -1;
    Int last_value = 0;
    int last_digits = 0;

    // --- per-attempt decode-plan state -----------------------------------
    // plan_attempt turns off for the whole attempt in the (organically
    // unreachable) case a dead-end ban lands on a field no sliced solver can
    // express: an unclustered field, or one in a fully prompt-determined
    // cluster — both can only pin values the solver already proved feasible.
    const std::size_t n_clusters = plan_mode ? plan_->clusters.size() : 0;
    bool plan_attempt = plan_mode && mode == GuidanceMode::kFull;
    if (plan_attempt)
      for (const auto& [bf, bv] : banned) {
        const int bc = plan_->field_cluster[static_cast<std::size_t>(bf)];
        if (bc < 0 || !cluster_solvers_[static_cast<std::size_t>(bc)]) {
          plan_attempt = false;
          break;
        }
      }
    // Per cluster: rolling pin/ban fingerprint (keys the sliced solver's
    // cache entries), dirty flag (any pin/ban this attempt — always-bits
    // from the tables are then off the table), and pinned-state
    // feasibility: 1 = satisfiable, 0 = not, -1 = stale (re-check lazily).
    std::vector<std::uint64_t> cfp;
    std::vector<signed char> cluster_state;
    std::vector<signed char> cluster_dirty;
    std::vector<std::unique_ptr<ScopeGuard>> cluster_scopes;
    if (plan_attempt) {
      cfp.assign(n_clusters, kPinFingerprintSeed);
      // An active plan proved every cluster satisfiable on its own.
      cluster_state.assign(n_clusters, 1);
      cluster_dirty.assign(n_clusters, 0);
      for (const auto& s : cluster_solvers_)
        if (s) cluster_scopes.push_back(std::make_unique<ScopeGuard>(*s));
    }
    // Pins replayed from the prompt or a recovery resume were not validated
    // against the current ban set, so they leave cluster states stale; pins
    // from live generation passed their exact-feasibility check this attempt
    // and keep the cluster provably satisfiable.
    bool replaying = true;

    // Re-assert dead-end bans inside this attempt's scope. Each ban records a
    // pin the solver proved infeasible, so excluding it cannot remove a value
    // a compliant row needs (at worst it narrows diversity near the ban).
    fp = kPinFingerprintSeed;
    if (solver_guided)
      for (const auto& [field, value] : banned) {
        const smt::Formula ban_f =
            smt::ne(smt::LinExpr(vars_[static_cast<std::size_t>(field)]),
                    smt::LinExpr(value));
        solver_->add(ban_f);
        fp = mix_pin(fp, kPinTagBan, field, value);
        if (plan_attempt) {
          const std::size_t c = static_cast<std::size_t>(
              plan_->field_cluster[static_cast<std::size_t>(field)]);
          cluster_solvers_[c]->add(ban_f);
          cfp[c] = mix_pin(cfp[c], kPinTagBan, field, value);
          cluster_dirty[c] = 1;
          cluster_state[c] = -1;
        }
      }

    // Pin a completed field value into the solver (solver-guided modes).
    const auto pin_field = [&](int field, Int value, int digits) {
      last_field = field;
      last_value = value;
      last_digits = digits;
      if (!solver_guided) return;
      if (use_cache) {
        // Persist the field's hull/witness state under its pre-pin
        // fingerprint so later attempts and rows reuse it.
        if (full_hull && full_hull_field == field) {
          cache_.store_hull(full_hull_fp, field, *full_hull);
          full_hull.reset();
          full_hull_field = -1;
        }
        // One solver scope per pin mirrors the walk: a recovery rewind pops
        // back to a saved base snapshot instead of re-propagating the rules.
        solver_->push();
        fp = mix_pin(fp, kPinTagPin, field, value);
      }
      const smt::Formula pin_f =
          smt::eq(smt::LinExpr(vars_[static_cast<std::size_t>(field)]),
                  smt::LinExpr(value));
      solver_->add(pin_f);
      if (plan_attempt) {
        const int c = plan_->field_cluster[static_cast<std::size_t>(field)];
        if (c >= 0 && cluster_solvers_[static_cast<std::size_t>(c)]) {
          smt::Backend& cs = *cluster_solvers_[static_cast<std::size_t>(c)];
          if (use_cache) {
            cs.push();
            cfp[static_cast<std::size_t>(c)] =
                mix_pin(cfp[static_cast<std::size_t>(c)], kPinTagPin, field,
                        value);
          }
          cs.add(pin_f);
          cluster_dirty[static_cast<std::size_t>(c)] = 1;
          cluster_state[static_cast<std::size_t>(c)] =
              replaying ? static_cast<signed char>(-1)
                        : static_cast<signed char>(1);
        }
        // c == -1 needs no mirroring: with no rule referencing the field, the
        // pin only restates a domain value every solver already admits.
      }
      if (mode == GuidanceMode::kHull) pending_feasibility_check = true;
    };

    // Satisfiability of the pinned state itself (prompt feasibility and the
    // kHull post-pin hole check), memoized on the fingerprint alone.
    const auto pinned_state_feasible = [&] {
      return admitted(*solver_, {}, QueryKind::kPinned, fp, -1, 0, 0);
    };

    // Plan attempts: is cluster d's pinned state satisfiable? A sliced query
    // about one cluster answers the full-set verdict only when every *other*
    // cluster can still be satisfied around it (clusters are
    // variable-disjoint, so per-cluster models compose). States invalidated
    // by replayed pins or bans are re-checked here, memoized on the
    // cluster's own fingerprint under a key field that cannot collide with
    // real fields (>= 0) or the global pinned-state key (-1).
    const auto cluster_feasible = [&](std::size_t d) -> bool {
      if (cluster_state[d] == -1) {
        // A null slice is a fully prompt-determined cluster: its pins passed
        // the prompt feasibility check, and nothing since could touch it.
        smt::Backend* const cs = cluster_solvers_[d].get();
        const bool ok = cs == nullptr ||
                        admitted(*cs, {}, QueryKind::kPinned, cfp[d],
                                 -(static_cast<int>(d) + 2), 0, 0);
        cluster_state[d] = ok ? 1 : 0;
      }
      return cluster_state[d] == 1;
    };

    // Advance the walk over one legal character; pins fields as they complete.
    const auto advance = [&](char c) {
      if (const auto done = walk.step(layout_, c)) {
        pin_field(done->field, done->digits.value, done->digits.digits);
        field_hull.reset();
      }
    };

    // Consume the prompt (its values are given, not generated: no look-ahead).
    for (const char c : prompt) {
      advance(c);
      context.push_back(tokenizer_.encode_char(c));
      text.push_back(c);
    }
    pending_feasibility_check = false;  // the prompt check below covers it
    if (solver_guided && !prompt.empty()) {
      if (!pinned_state_feasible()) {
        result.text = text;
        return {Outcome::kInfeasiblePrompt, -1, 0, 0,
                "prompt contradicts the rule set (or check stayed "
                "inconclusive under the kUnknown policy)"};
      }
      // Full rules ∧ bans ∧ prompt pins satisfiable ⇒ every cluster's slice
      // of that state is satisfiable (a full model restricts to each).
      if (plan_attempt)
        std::fill(cluster_state.begin(), cluster_state.end(),
                  static_cast<signed char>(1));
    }

    // Replay the part of a previous attempt that survived the rewind. Its
    // legality was established when it was first emitted, so no masking or
    // LM work is repeated; pins are re-asserted through advance().
    for (const char c : resume) {
      advance(c);
      context.push_back(tokenizer_.encode_char(c));
      text.push_back(c);
    }
    pending_feasibility_check = false;  // held before the rewind point
    replaying = false;  // pins from here on are mask-validated first

    // --- the current step's candidates ------------------------------------
    // compute_mask() opens a step: it lists the tokens the step's syntax
    // allows as candidates, sets up the routing that decides them, and
    // decides as many as the step needs before the LM call. A lazy step
    // (DESIGN.md §9.4) leaves the rest undecided, so the step's routing
    // stays live across the LM call until choose() has picked its token.
    // Eager steps (lazy_mask off, kHull and kSyntax, greedy or top-k
    // sampling) decide every candidate up front.
    const bool lazy = config_.lazy_mask && mode == GuidanceMode::kFull &&
                      config_.sampler.temperature > 0.0 &&
                      config_.sampler.top_k == 0;
    // Candidate tokens in decision order: a literal, or the digits
    // ascending and then the terminator.
    std::array<int, 11> candidates{};
    int n_candidates = 0;
    int terminator_token = -1;  // the candidate that terminates the field
    int legal = 0;              // candidates decided legal
    int undecided = 0;          // candidates not decided yet

    // Routing of the current digit step, read by each of its probes:
    //   var, max_digits  the field's solver variable and digit budget,
    //   plan_cluster  the field's cluster (-1 = no rule references it;
    //                 -2 = plan off this attempt),
    //   table         the field's digit table, if the plan has one,
    //   qsolver/qfp   the solver and fingerprint answering live queries —
    //                 the cluster's sliced solver when one exists, else
    //                 the full solver,
    //   others_ok     every *other* cluster's pinned state is satisfiable;
    //                 when false, no completion of this field exists and
    //                 the whole digit section masks out (exactly what the
    //                 unsliced queries would conclude one by one),
    //   always_ok     table always-bits may answer — they describe
    //                 completability under the cluster rules *alone*, so
    //                 they need a pin/ban-free cluster, a prefix that was
    //                 mask-validated (not begun inside the prompt), and
    //                 others_ok.
    smt::VarId var;
    int max_digits = 0;
    int plan_cluster = -2;
    const plan::DigitTable* table = nullptr;
    smt::Backend* qsolver = nullptr;
    std::uint64_t qfp = 0;
    bool others_ok = true;
    bool always_ok = false;

    // The one probe chain (DESIGN.md §9.2): is some completion of `p`
    // (kCompletion) or the exact value of `p` (kExact) still feasible?
    // Stages run in a fixed order, and the first that can answer does:
    //   1. plan: every other cluster satisfiable, the digit table's never
    //      and always bits for `table_bit`, and the declared domain of a
    //      field no rule references;
    //   2. hull (cache on): refute a probe that misses the hull, admit one
    //      holding a witness or an exact hull's endpoint;
    //   3. the verdict memo (cache on), then 4. the answering solver under
    //      the kUnknown policy (both in admitted()).
    // Every stage agrees with what the solver would answer, so the mask,
    // and therefore the decoded text, does not depend on which one did.
    const auto feasible = [&](QueryKind kind, const DigitPrefix& p,
                              int table_bit) {
      const bool is_exact = kind == QueryKind::kExact;
      const auto meets = [&](const smt::Interval& iv) {
        return is_exact ? iv.contains(p.value)
                        : completion_intersects(p, max_digits, iv);
      };
      const auto holds = [&](Int v) {
        return is_exact ? v == p.value : completion_contains(p, max_digits, v);
      };
      if (plan_attempt) {
        if (!others_ok) return false;
        const int k = walk.digits.digits;
        if (table && table->row_verified(k)) {
          // never is monotone-sound under any pins/bans (they only
          // remove completions); always needs the clean-cluster gate.
          if (table->never_bit(k, table_bit)) {
            ++result.stats.plan_table_hits;
            return false;
          }
          if (always_ok && table->always_bit(k, table_bit)) {
            ++result.stats.plan_table_hits;
            return true;
          }
        }
        // No rule references this field: completability against the
        // declared domain is the exact verdict, solver-free.
        if (plan_cluster == -1)
          return meets(smt::Interval{
              0, layout_.fields[static_cast<std::size_t>(walk.field)]
                     .max_value});
        ++result.stats.plan_sliced_queries;
        result.stats.plan_sliced_rules +=
            cluster_live_rules_[static_cast<std::size_t>(plan_cluster)];
      }
      if (use_cache) {
        const smt::Interval& b = full_hull->bounds;
        const bool refuted = !meets(b);
        if (refuted || std::ranges::any_of(full_hull->witnesses, holds) ||
            (full_hull->exact && (holds(b.lo) || holds(b.hi)))) {
          if (obs::metrics_enabled()) hull_conclusive_counter().inc();
          return !refuted;
        }
      }
      const smt::Formula f =
          is_exact ? smt::eq(smt::LinExpr(var), smt::LinExpr(p.value))
                   : prefix_completion_formula(var, p, max_digits);
      bool live_sat = false;
      const bool ok = admitted(*qsolver, std::span(&f, 1), kind, qfp,
                               walk.field, p.value, is_exact ? 0 : p.digits,
                               &live_sat);
      if (live_sat && use_cache) {
        // Backends may lose the model (e.g. a degraded external check);
        // a missing witness is only a cache miss, never an error.
        if (is_exact)
          full_hull->add_witness(p.value);
        else if (const auto w = qsolver->model_value(var))
          full_hull->add_witness(*w);
      }
      return ok;
    };

    // Decides whether candidate `tok` of the current digit step is legal.
    const auto decide = [&](int tok) {
      const bool ok = [&] {
        if (tok == terminator_token) {
          if (mode == GuidanceMode::kFull)
            return feasible(QueryKind::kExact, walk.digits,
                            plan::kTerminatorBit);
          return mode != GuidanceMode::kHull ||
                 field_hull->contains(walk.digits.value);
        }
        const int d = tokenizer_.decode_char(tok) - '0';
        const DigitPrefix next = walk.digits.extended(d);
        if (mode == GuidanceMode::kFull)
          return feasible(QueryKind::kCompletion, next, d);
        return mode != GuidanceMode::kHull ||
               completion_intersects(next, max_digits, *field_hull);
      }();
      states[static_cast<std::size_t>(tok)] =
          ok ? lm::TokenState::kLegal : lm::TokenState::kIllegal;
      --undecided;
      if (ok) ++legal;
    };

    // Opens the current step and returns the number of candidates known
    // legal. Below two (one without forced-literal skipping), every
    // candidate has been decided.
    const auto compute_mask = [&]() -> int {
      std::ranges::fill(states, lm::TokenState::kIllegal);
      n_candidates = 0;
      terminator_token = -1;
      legal = 0;
      undecided = 0;
      const auto add_candidate = [&](char c) {
        const int tok = tokenizer_.encode_char(c);
        candidates[static_cast<std::size_t>(n_candidates++)] = tok;
        states[static_cast<std::size_t>(tok)] = lm::TokenState::kUndecided;
        ++undecided;
        return tok;
      };
      const auto allow_literal = [&](char c) {
        states[static_cast<std::size_t>(add_candidate(c))] =
            lm::TokenState::kLegal;
        undecided = 0;
        legal = 1;
        return legal;
      };

      if (walk.in_suffix(layout_))
        return allow_literal(layout_.suffix[walk.suffix_pos]);
      const auto& spec = layout_.fields[static_cast<std::size_t>(walk.field)];
      if (walk.prefix_pos < spec.prefix.size())
        return allow_literal(spec.prefix[walk.prefix_pos]);

      var = vars_[static_cast<std::size_t>(walk.field)];
      max_digits = digits_for(spec.max_value);
      plan_cluster =
          plan_attempt
              ? plan_->field_cluster[static_cast<std::size_t>(walk.field)]
              : -2;
      table = plan_attempt ? plan_->table_for(walk.field) : nullptr;
      qsolver = solver_.get();
      qfp = fp;
      others_ok = true;
      always_ok = false;
      if (plan_attempt) {
        for (std::size_t d = 0; d < n_clusters; ++d)
          if (static_cast<int>(d) != plan_cluster && !cluster_feasible(d)) {
            others_ok = false;
            break;
          }
        always_ok =
            others_ok && walk.field != prompt_partial_field &&
            (plan_cluster < 0 ||
             cluster_dirty[static_cast<std::size_t>(plan_cluster)] == 0);
        if (plan_cluster >= 0 &&
            cluster_solvers_[static_cast<std::size_t>(plan_cluster)]) {
          qsolver =
              cluster_solvers_[static_cast<std::size_t>(plan_cluster)].get();
          qfp = cfp[static_cast<std::size_t>(plan_cluster)];
        }
      }

      if (mode == GuidanceMode::kHull && !field_hull)
        field_hull = hull_under_policy(var, walk.field);

      // kFull + cache: establish hull/witness state for this field. A cached
      // exact hull (e.g. from a kHull pass at the same fingerprint) gives
      // conclusive answers in both directions; otherwise the solver base's
      // propagated bounds give free conclusive-infeasible answers and
      // witnesses accumulate from organic sat checks. Plan attempts key the
      // hull on the answering cluster's solver and fingerprint; unclustered
      // fields skip it (their queries are pure interval arithmetic already).
      if (mode == GuidanceMode::kFull && use_cache &&
          !(plan_attempt && plan_cluster == -1) &&
          (!full_hull || full_hull_field != walk.field)) {
        full_hull_fp = qfp;
        full_hull_field = walk.field;
        full_hull = cache_.find_hull(qfp, walk.field);
        if (!full_hull) {
          FeasibilityCache::Hull entry;
          entry.bounds = qsolver->propagated_bounds(var);
          // A lint-seeded static hull over-approximates the feasible set
          // under any pins/bans, so intersecting it in is sound and can be
          // tighter than bounds consistency (exact hulls see through
          // disjunction holes that propagation cannot).
          if (const FeasibilityCache::Hull* s = cache_.static_hull(walk.field))
            entry.bounds = intersect(entry.bounds, s->bounds);
          full_hull = std::move(entry);
        }
      }

      // Digits that extend the prefix within the syntax.
      for (int d = 0; d <= 9; ++d) {
        if (!walk.digits.empty() && !walk.digits.can_extend(max_digits)) break;
        if (prefix_syntactically_ok(walk.digits.extended(d), max_digits))
          add_candidate(static_cast<char>('0' + d));
      }
      // Terminating the field on its exact current value. A banned value
      // must not be re-pinned, whichever mode is active (kFull would also
      // learn this from the asserted ban).
      if (!walk.digits.empty() &&
          std::ranges::find(banned, std::pair<int, Int>{
                                        walk.field, walk.digits.value}) ==
              banned.end())
        terminator_token = add_candidate(walk.terminator(layout_));

      // Decide in order until the step is known to need the LM.
      const int enough = config_.skip_forced_literals ? 2 : 1;
      for (int i = 0; i < n_candidates && !(lazy && legal >= enough); ++i)
        decide(candidates[static_cast<std::size_t>(i)]);
      return legal;
    };

    // After the LM call: the token a masked step emits. Decides the LM's
    // argmax first, so interventions stay exact. A lazy step then draws the
    // uniform exactly when sample_token would, once some legal mass is
    // known, and decides the other candidates in decreasing probability
    // only until settled_pick() names the token that every outcome of the
    // rest would pick. An eager step has nothing left to decide and samples
    // as it always has, through sample_token.
    const auto choose = [&](std::span<const float> logits) -> int {
      // Deciding is timed as mask_build and everything else as sampling, in
      // disjoint spans.
      const auto decide_timed = [&](int tok) {
        const obs::Span span(obs::Phase::kMaskBuild);
        decide(tok);
      };
      const auto state = [&](int tok) {
        return states[static_cast<std::size_t>(tok)];
      };
      // One softmax serves the pick and removed_mass, which is measured at
      // temperature 1, the default sampler temperature.
      const double temperature = lazy ? config_.sampler.temperature : 1.0;
      const std::vector<double> probs = [&] {
        const obs::Span span(obs::Phase::kSampling);
        return lm::softmax(logits, temperature);
      }();
      const auto argmax = static_cast<int>(std::ranges::max_element(logits) -
                                           logits.begin());
      if (state(argmax) == lm::TokenState::kUndecided) decide_timed(argmax);

      const std::span<const int> listed(
          candidates.data(), static_cast<std::size_t>(n_candidates));
      const auto prob = [&](int t) {
        return probs[static_cast<std::size_t>(t)];
      };
      int tok = -1;
      double u = -1.0;  // the uniform draw, once taken
      while (lazy) {
        int next = -1;
        {
          const obs::Span span(obs::Phase::kSampling);
          if (u < 0.0 && std::ranges::any_of(listed, [&](int t) {
                return state(t) == lm::TokenState::kLegal && prob(t) > 0.0;
              }))
            u = rng.uniform();
          if (u >= 0.0) tok = lm::settled_pick(probs, states, u);
          if (tok < 0)
            for (const int t : listed)
              if (state(t) == lm::TokenState::kUndecided &&
                  (next < 0 || prob(t) > prob(next)))
                next = t;
        }
        if (next < 0) break;
        decide_timed(next);
      }

      const obs::Span span(obs::Phase::kSampling);
      if (tok < 0) {
        // Every candidate is decided: the eager pick. On a lazy step this
        // means no legal token has mass, so sample_token draws nothing.
        for (std::size_t i = 0; i < states.size(); ++i)
          mask[i] = states[i] == lm::TokenState::kLegal;
        tok = lm::sample_token(logits, config_.sampler, rng, mask);
      }

      // removed_mass counts the mass proven illegal: exact once every
      // candidate is decided, a lower bound while some are not.
      const auto kept_mass = [&](std::span<const double> p) {
        double kept = 0.0;
        for (std::size_t i = 0; i < p.size(); ++i)
          if (states[i] != lm::TokenState::kIllegal) kept += p[i];
        return kept;
      };
      const double removed =
          1.0 - (temperature == 1.0 ? kept_mass(probs)
                                    : kept_mass(lm::softmax(logits, 1.0)));
      result.stats.removed_mass += removed;
      result.stats.unresolved_candidates += undecided;
      if (state(argmax) != lm::TokenState::kLegal) {
        ++result.stats.interventions;
        // Histogram only the steps where the mask actually intervened:
        // recording every masked step buries the distribution under a
        // mountain of ~zero-removal entries and makes its percentiles
        // meaningless. The scalar removed_mass sum above still covers all
        // masked steps (DecodeStats::mean_removed_mass depends on that).
        removed_mass_histogram().observe(removed);
      }
      return tok;
    };

    while (!walk.done(layout_)) {
      if (auto overrun = row_budget_overrun()) {
        result.text = text;
        return {Outcome::kRowBudget, -1, 0, 0, std::move(*overrun)};
      }
      const int known_legal = [&] {
        const obs::Span span(obs::Phase::kMaskBuild);
        return compute_mask();
      }();
      if (known_legal == 0) {
        result.text = text;
        return {Outcome::kEmptyMask, -1, 0, 0,
                "empty mask at char " + std::to_string(text.size())};
      }

      char emitted = 0;
      if (known_legal == 1 && config_.skip_forced_literals) {
        const auto it = std::ranges::find(states, lm::TokenState::kLegal);
        emitted = tokenizer_.decode_char(static_cast<int>(it - states.begin()));
      } else {
        const std::vector<float> logits = [&] {
          const obs::Span span(obs::Phase::kLmForward);
          return model_.logits(context);
        }();
        ++result.stats.lm_calls;
        ++result.stats.masked_steps;
        emitted = tokenizer_.decode_char(choose(logits));
      }

      advance(emitted);
      context.push_back(tokenizer_.encode_char(emitted));
      text.push_back(emitted);
      ++result.stats.chars;

      // kHull: a value inside the hull may still sit in a hole of the
      // feasible set; detect the dead end right after pinning.
      if (pending_feasibility_check) {
        pending_feasibility_check = false;
        if (!pinned_state_feasible()) {
          result.text = text;
          return {Outcome::kDeadEnd, last_field, last_value, last_digits,
                  "dead end after pinning field #" +
                      std::to_string(last_field) + " (" +
                      layout_.fields[static_cast<std::size_t>(last_field)]
                          .name +
                      " = " + std::to_string(last_value) + ")"};
        }
      }
    }

    // Strip the trailing suffix from the visible text? Keep text as emitted
    // but without the newline for readability.
    std::string row = text;
    if (!row.empty() && row.back() == '\n') row.pop_back();
    result.text = row;
    result.window = telemetry::parse_row(row, layout_);
    result.ok = result.window.has_value();
    LEJIT_ASSERT(result.ok, "guided decode produced an unparsable row");
    return {Outcome::kComplete, -1, 0, 0, {}};
  };

  // The recovery loop: run attempts until one completes, a non-recoverable
  // outcome ends the row, or the retry budget runs dry.
  int attempts_left = res.retry_budget;
  while (true) {
    const AttemptEnd attempt = run_attempt();
    result.stats.solver_checks = solver_stats().checks - checks_before;

    switch (attempt.outcome) {
      case Outcome::kComplete:
        return result;
      case Outcome::kInfeasiblePrompt:
        result.infeasible_prompt = true;
        result.reason = FailReason::kInfeasiblePrompt;
        result.fail_detail = attempt.note;
        return result;
      case Outcome::kRowBudget:
        result.reason = FailReason::kBudgetExhausted;
        result.fail_detail = attempt.note;
        LEJIT_LOG_WARN("guided decode aborted: " + attempt.note);
        return result;
      case Outcome::kDeadEnd:
      case Outcome::kEmptyMask:
        break;  // recoverable, budget permitting
    }

    if (attempts_left <= 0) {
      if (attempt.outcome == Outcome::kDeadEnd) {
        result.dead_end = true;
        result.reason = FailReason::kDeadEnd;
      } else {
        result.reason = FailReason::kEmptyMask;
        LEJIT_LOG_WARN("guided decode hit an empty mask at char " +
                       std::to_string(result.stats.chars));
      }
      result.fail_detail = attempt.note;
      return result;
    }
    --attempts_left;
    ++result.recoveries;

    // Rewind: drop the last backtrack_chars generated characters — for a
    // dead end, at least the failing field's digits and terminator, so the
    // field reopens — then ban the failing pin and resample.
    const std::string full = result.text;
    std::size_t keep =
        full.size() > static_cast<std::size_t>(res.backtrack_chars)
            ? full.size() - static_cast<std::size_t>(res.backtrack_chars)
            : 0;
    if (attempt.outcome == Outcome::kDeadEnd) {
      const std::size_t field_start =
          full.size() - static_cast<std::size_t>(attempt.dead_digits) - 1;
      keep = std::min(keep, field_start);
      banned.emplace_back(attempt.dead_field, attempt.dead_value);
    }
    keep = std::max(keep, prompt.size());
    resume = full.substr(prompt.size(), keep - prompt.size());

    // Hull masking that keeps walking into holes is not worth saving: after
    // a second recovery, restart under exact look-ahead.
    if (mode == GuidanceMode::kHull && res.escalate_guidance &&
        result.recoveries >= 2) {
      mode = GuidanceMode::kFull;
      result.guidance_escalated = true;
    }
    LEJIT_LOG_DEBUG("dead-end recovery #" + std::to_string(result.recoveries) +
                    ": " + attempt.note + "; resuming from char " +
                    std::to_string(keep));
  }
}

}  // namespace lejit::core
