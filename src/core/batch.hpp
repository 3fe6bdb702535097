// Per-row RNG derivation for multi-row decoding.
//
// The paper's workload is 30K imputations over a rack fleet (§4.1); the
// serve runtime (src/serve/) decodes such workloads on many sessions at
// once. Sampling is deterministic and *schedule-independent* because row i
// is always decoded with an RNG forked from (seed, i), so the results are
// bit-identical to a sequential run regardless of which session decodes
// which row.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"

namespace lejit::core {

// Deterministic per-row RNG: depends only on (seed, row, attempt), so
// results are schedule-independent. The serve runtime and every sequential
// oracle decode attempt 0; distinct attempts give distinct streams.
util::Rng row_rng(std::uint64_t seed, std::size_t row, int attempt) noexcept;

}  // namespace lejit::core
