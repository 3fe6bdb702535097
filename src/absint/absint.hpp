// lejit::absint — sound abstract interpretation over rule sets (DESIGN.md §16).
//
// This module computes, once per rule set, a sound over-approximation of each
// field's feasible values under the conjunction of all rules, and can refine
// it with further facts (pins). The linter and the plan verifier consume it;
// the decoder does not (DESIGN.md §16.2 records why):
//
//   lint     solver-free findings (constant/congruent fields, restricted
//            last digits, tightened overflow magnitudes) and an absint
//            prefilter for dead-rule detection that stops burning smt::Budget.
//   verify   a third, independent containment pass over compiled digit
//            tables: every table-claimed-admissible prefix must fall inside
//            the abstract over-approximation (an escapee is a miscompilation).
//
// The domain is a reduced product of three lattices per field:
//
//   interval    [lo, hi]                   (smt::Interval; empty ⇔ bottom)
//   congruence  v ≡ rem (mod m), m ≥ 1     (m == 1 ⇔ top)
//   known-bits  (v & mask) == value        (mask == 0 ⇔ top)
//
// Soundness argument (the only property anything relies on): the analysis
// starts from the declared field domains (a correct over-approximation) and
// every step is either a meet with information implied by a rule, or a join
// over the branches of a disjunction — both keep γ(state) ⊇ {feasible rows}.
// Iteration to a fixpoint is *descending*, so stopping after any bounded
// number of rounds (`Config::max_iterations`, our stand-in for widening) is
// trivially sound: an early stop only leaves the state coarser. Bottom
// (empty interval) therefore proves genuine infeasibility. The direction is
// enforced end-to-end by a differential fuzz harness (absint/diff.hpp,
// `lejit_cli absint-diff`): whenever the abstraction refutes, a real SMT
// backend must answer unsat.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "rules/rule.hpp"
#include "smt/formula.hpp"
#include "smt/linexpr.hpp"
#include "telemetry/text.hpp"

namespace lejit::absint {

using smt::Int;
using smt::Interval;

// Bits 0..kValueBits-1 participate in the known-bits domain; field domains
// are non-negative and bounded by smt::kIntInf < 2^62, so 62 bits cover
// every representable value.
inline constexpr int kValueBits = 62;
inline constexpr std::uint64_t kValueMask = (std::uint64_t{1} << kValueBits) - 1;

// v ≡ rem (mod mod). Invariant: mod ≥ 1 and 0 ≤ rem < mod; mod == 1 is top.
struct Congruence {
  Int mod = 1;
  Int rem = 0;

  bool is_top() const noexcept { return mod <= 1; }
  bool admits(Int v) const noexcept;
  bool operator==(const Congruence&) const = default;
};

// (v & mask) == value on the low kValueBits. Invariant: value ⊆ mask ⊆
// kValueMask; mask == 0 is top. Only meaningful for non-negative values —
// every field domain here is.
struct KnownBits {
  std::uint64_t mask = 0;
  std::uint64_t value = 0;

  bool is_top() const noexcept { return mask == 0; }
  bool admits(Int v) const noexcept {
    return v >= 0 && (static_cast<std::uint64_t>(v) & mask) == value;
  }
  bool operator==(const KnownBits&) const = default;
};

// One field's abstract value: the reduced product of the three components.
// γ(a) = {v : range.contains(v) ∧ cong.admits(v) ∧ bits.admits(v)}.
// Bottom is canonically represented by an empty interval.
struct AbsVal {
  Interval range{0, -1};  // empty ⇒ bottom
  Congruence cong{};
  KnownBits bits{};

  bool is_bottom() const noexcept { return range.is_empty(); }
  bool admits(Int v) const noexcept {
    return range.contains(v) && cong.admits(v) && bits.admits(v);
  }
  static AbsVal top(Int lo, Int hi);
  static AbsVal bottom() { return AbsVal{}; }
  bool operator==(const AbsVal&) const = default;
};

struct Config {
  // Descending-refinement rounds over the rule set. Any bound is sound
  // (see the soundness argument above); more rounds buy precision on
  // chained cross-field constraints.
  int max_iterations = 6;
  // Congruence moduli are dropped to top beyond this cap so lcm chains
  // cannot blow up. Capping is sound (top over-approximates).
  Int max_modulus = Int{1} << 20;
  // TEST ONLY: deliberately break the ≤ transfer function by one (claims
  // infeasibility of feasible endpoints). Exists so the absint-diff fuzz
  // harness can demonstrate it catches an unsound domain; never set outside
  // the mutation tests / `lejit_cli absint-diff --inject-unsound`.
  bool test_unsound_tighten = false;
};

// --- lattice operations ------------------------------------------------------

// Meet (conjunction). Empty/contradictory results collapse to bottom.
AbsVal meet(const AbsVal& a, const AbsVal& b, const Config& config = {});
// Join (disjunction hull). Never bottom unless both inputs are.
AbsVal join(const AbsVal& a, const AbsVal& b);

// Re-establish the reduced-product invariants: each component tightens the
// others (congruence/bits shave interval endpoints, interval endpoints fix
// high bits, low contiguous known bits induce a power-of-two congruence, …)
// until stable or provably empty. Always a descending operation.
void normalize(AbsVal& a, const Config& config = {});

// --- queries -----------------------------------------------------------------

// Does γ(a) intersect [lo, hi]? A `false` answer is a proof of emptiness;
// `true` may be imprecise (each component is consulted separately).
bool interval_admitted(const AbsVal& a, Int lo, Int hi);

// Does γ(a) admit the exact value v?
inline bool admits_value(const AbsVal& a, Int v) { return a.admits(v); }

// Does γ(a) intersect the canonical-decimal completion set of the digit
// prefix (value, digits) — i.e. {value} ∪ [value·10^m, value·10^m + 10^m − 1]
// for m = 1..max_digits−digits (no extensions of the lone "0" prefix,
// mirroring core::DigitPrefix::can_extend)? digits == 0 is the empty prefix,
// whose completions are every canonical value: admitted iff a is non-bottom.
// `false` is a proof that no completion is feasible.
bool completion_admitted(const AbsVal& a, Int value, int digits,
                         int max_digits);

// Smallest v ≥ lo with bits.admits(v), or nullopt when none exists below
// 2^kValueBits. Exact (not an approximation) — refutations built on it are
// proofs. Exposed for tests.
std::optional<Int> least_match_at_least(Int lo, const KnownBits& bits);
// Largest v ≤ hi with bits.admits(v), or nullopt. Exact; exposed for tests.
std::optional<Int> greatest_match_at_most(Int hi, const KnownBits& bits);

// --- analysis ----------------------------------------------------------------

// Refine `state` (one AbsVal per layout field, smt::VarId{i} ↔ state[i]) with
// one NNF formula: atoms tighten the referenced fields (interval propagation
// for ≤, interval + congruence propagation for =, endpoint shaving for ≠),
// conjunctions fold, disjunctions join the refinements of per-branch copies.
// Returns false — and leaves every field bottom — when the formula is
// abstractly unsatisfiable against `state` (a proof of real unsatisfiability).
bool refine(std::vector<AbsVal>& state, const smt::Formula& f,
            const Config& config = {});

// Refine with every rule of `set`, iterating to a fixpoint or the round cap.
// Returns false iff the conjunction is abstractly (hence really) infeasible.
bool refine_all(std::vector<AbsVal>& state, const rules::RuleSet& set,
                const Config& config = {});

// Top state for a layout: per field [0, max_value], components top, reduced.
std::vector<AbsVal> top_state(const telemetry::RowLayout& layout,
                              const Config& config = {});

struct Analysis {
  std::vector<AbsVal> fields;  // fixpoint state, index-aligned with layout
  bool infeasible = false;     // bottom reached ⇒ rule set UNSAT over domains
  int iterations = 0;          // refinement rounds actually run
  bool converged = false;      // reached a fixpoint before the round cap

  const AbsVal& field(int i) const {
    return fields[static_cast<std::size_t>(i)];
  }
};

// The whole pipeline: top_state + refine_all. Never throws on bad rule sets
// (an UNSAT set analyzes to `infeasible` with every field bottom).
Analysis analyze(const rules::RuleSet& set, const telemetry::RowLayout& layout,
                 const Config& config = {});

}  // namespace lejit::absint
