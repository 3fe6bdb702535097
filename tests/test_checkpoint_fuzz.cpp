// Fail-closed fuzzing of the transformer checkpoint loader
// (lm::Transformer::load).
//
// A checkpoint is an on-disk input like a decode plan: it may be truncated,
// corrupted, or written by another build. The loader's contract is clean
// rejection with util::RuntimeError, never a crash, UB, or an allocation
// sized by an unchecked header field. These tests run in the stress binary
// so the `stress` ctest label exercises them under ASan+UBSan, next to the
// plan-loader corpus (test_plan_fuzz.cpp).
//
// Three corpora:
//   1. Truncations: every strict prefix of a valid tiny checkpoint.
//   2. Seeded byte and bit flips in its 36-byte header. A flip may still
//      describe a loadable model; any escape other than util::RuntimeError
//      fails.
//   3. Hand-written absurd headers: zero or negative dimensions, d_model not
//      divisible by n_heads, dimensions whose parameter count overflows 64
//      bits, and counts near 2^32.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "lm/transformer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lejit::lm {
namespace {

constexpr std::size_t kHeaderBytes = 36;  // 9 little-endian uint32 words

const TransformerConfig kTiny{.vocab_size = 3,
                              .d_model = 4,
                              .n_layers = 1,
                              .n_heads = 2,
                              .d_ff = 4,
                              .max_seq = 3};

std::string path_for(const std::string& name) {
  return ::testing::TempDir() + "lejit_ckpt_fuzz_" + name + ".bin";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string valid_checkpoint(const std::string& name) {
  util::Rng rng(5);
  const std::string path = path_for(name);
  Transformer(kTiny, rng).save(path);
  return read_file(path);
}

// The only acceptable outcomes: a loaded model or util::RuntimeError. Any
// other exception, or a sanitizer report, fails the test.
void expect_clean(const std::string& path, const std::string& bytes) {
  write_file(path, bytes);
  try {
    const Transformer m = Transformer::load(path);
    (void)m;
  } catch (const util::RuntimeError&) {
    // clean rejection
  }
}

// Header word `index` of a checkpoint (0 magic, 1 version, 2-7 dimensions,
// 8 parameter count) replaced by `value`.
std::string with_word(std::string bytes, std::size_t index,
                      std::uint32_t value) {
  std::memcpy(bytes.data() + 4 * index, &value, sizeof(value));
  return bytes;
}

TEST(CheckpointFuzz, EveryTruncationRejectsCleanly) {
  const std::string doc = valid_checkpoint("trunc_src");
  ASSERT_GT(doc.size(), kHeaderBytes);
  const std::string path = path_for("trunc");
  for (std::size_t n = 0; n < doc.size(); ++n) {
    write_file(path, doc.substr(0, n));
    EXPECT_THROW((void)Transformer::load(path), util::RuntimeError)
        << n << " bytes";
  }
  write_file(path, doc);
  EXPECT_NO_THROW((void)Transformer::load(path));
}

TEST(CheckpointFuzz, SeededHeaderByteCorruptionsNeverEscape) {
  const std::string doc = valid_checkpoint("byte_src");
  const std::string path = path_for("byte");
  util::Rng rng(0x9e3779b97f4a7c15ull);
  for (int i = 0; i < 3000; ++i) {
    std::string mutated = doc;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kHeaderBytes) - 1));
    mutated[pos] = static_cast<char>(rng.uniform_int(0, 255));
    expect_clean(path, mutated);
  }
}

TEST(CheckpointFuzz, SeededHeaderBitFlipsNeverEscape) {
  const std::string doc = valid_checkpoint("bit_src");
  const std::string path = path_for("bit");
  util::Rng rng(7);
  for (int i = 0; i < 3000; ++i) {
    std::string mutated = doc;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kHeaderBytes) - 1));
    mutated[pos] =
        static_cast<char>(mutated[pos] ^ (1 << rng.uniform_int(0, 7)));
    expect_clean(path, mutated);
  }
}

TEST(CheckpointFuzz, AbsurdHeadersRejectWithoutAllocating) {
  const std::string doc = valid_checkpoint("absurd_src");
  const std::string path = path_for("absurd");
  const auto expect_rejected = [&](const std::string& bytes,
                                   const std::string& what) {
    write_file(path, bytes);
    EXPECT_THROW((void)Transformer::load(path), util::RuntimeError) << what;
  };
  // Each dimension zero, negative, or at the top of the uint32 range.
  for (std::size_t word = 2; word <= 7; ++word)
    for (const std::uint32_t v : {0u, 0x80000000u, 0xFFFFFFFFu})
      expect_rejected(with_word(doc, word, v),
                      "word " + std::to_string(word) + " = " +
                          std::to_string(v));
  // max_seq of 1 leaves no position to predict from.
  expect_rejected(with_word(doc, 7, 1), "max_seq 1");
  // d_model 4 split over 3 heads.
  expect_rejected(with_word(doc, 5, 3), "n_heads 3");
  // Every dimension at INT32_MAX: the implied count overflows 64 bits.
  std::string huge = doc;
  for (std::size_t word = 2; word <= 7; ++word)
    huge = with_word(huge, word, 0x7FFFFFFF);
  expect_rejected(huge, "all dimensions INT32_MAX");
  // Parameter counts the tiny dimensions do not imply, up to 2^32 - 1.
  for (const std::uint32_t count : {0u, 1u, 0x7FFFFFFFu, 0x80000000u,
                                    0xFFFFFFFEu, 0xFFFFFFFFu})
    expect_rejected(with_word(doc, 8, count),
                    "count " + std::to_string(count));
  // A consistent header for 0xFFFFFFF8 parameters (8 plus 16 per layer at
  // width 1) over a file far too short to hold them: 16 GiB of floats and
  // 268 million layers that must never be allocated.
  std::string big = doc;
  const std::uint32_t big_dims[] = {1, 1, 268435455, 1, 1, 2};
  for (std::size_t i = 0; i < 6; ++i) big = with_word(big, 2 + i, big_dims[i]);
  expect_rejected(with_word(big, 8, 0xFFFFFFF8u), "consistent huge header");
  // Valid header, wrong number of floats after it.
  expect_rejected(doc + std::string(4, '\0'), "one float too many");
  expect_rejected(doc.substr(0, doc.size() - 4), "one float too few");
}

}  // namespace
}  // namespace lejit::lm
