#include "core/batch.hpp"

namespace lejit::core {

util::Rng row_rng(std::uint64_t seed, std::size_t row, int attempt) noexcept {
  return util::Rng(seed ^ (0x9e3779b97f4a7c15ULL * (row + 1)) ^
                       (static_cast<std::uint64_t>(attempt) *
                        0xda942042e4dd58b5ULL),
                   2 * row + 1);
}

}  // namespace lejit::core
