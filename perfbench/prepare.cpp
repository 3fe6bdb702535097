// The benchmark's fixed inputs: the nano-GPT checkpoint, the mined rule texts
// and the n-gram corpus. They are committed under perfbench/inputs/, so every
// commit decodes with the same bytes; `lejit_perfbench prepare` regenerates
// them with bench::make_env, the environment of the figure benches (training
// split seed 20250705, 400 training steps, about a minute).
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "harness.hpp"
#include "lm/transformer.hpp"
#include "rules/parser.hpp"
#include "telemetry/text.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace perfbench {

namespace {

using namespace lejit;

constexpr const char* kModelFile = "/nano_gpt.ckpt";
constexpr const char* kImputeRulesFile = "/rules_impute.txt";
constexpr const char* kSynthRulesFile = "/rules_synth.txt";
constexpr const char* kTrainRowsFile = "/train_rows.txt";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw UnusableInputs("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  if (!out) throw util::RuntimeError("cannot write " + path);
}

// Rule text is what every set-up parses, so it must reproduce the mined set.
void require_round_trip(const rules::RuleSet& set,
                        const telemetry::RowLayout& layout) {
  const std::string text = set.to_text();
  const rules::ParsedRules parsed = rules::parse_rules(text, layout);
  LEJIT_REQUIRE(parsed.ok() && parsed.rules.to_text() == text,
                "mined rules do not round-trip through the rule text");
}

}  // namespace

int prepare(const std::string& out_dir) {
  const bench::BenchEnvConfig config{.use_transformer = true,
                                     .model_cache = out_dir + "/harness_model"};
  const bench::BenchEnv env = bench::make_env(config);

  std::string corpus;
  for (const auto& w : env.train) corpus += telemetry::window_to_row(w);
  write_file(out_dir + kTrainRowsFile, corpus);
  require_round_trip(env.mined, env.layout);
  require_round_trip(env.mined_coarse, env.layout);
  write_file(out_dir + kImputeRulesFile, env.mined.to_text());
  write_file(out_dir + kSynthRulesFile, env.mined_coarse.to_text());
  env.transformer->save(out_dir + kModelFile);
  // make_env's own copy of the checkpoint, under its cache name.
  std::error_code ignored;
  std::filesystem::remove(config.model_cache + "." +
                              std::to_string(config.seed) + "." +
                              std::to_string(config.train_steps) + ".bin",
                          ignored);

  std::cerr << "prepare: " << env.train.size() << " training rows, "
            << env.mined.size() << " mined rules ("
            << env.mined_coarse.size() << " coarse-only) in " << out_dir
            << "\n";
  return 0;
}

Inputs load_inputs(const std::string& dir,
                   const telemetry::RowLayout& layout,
                   const lm::CharTokenizer& tokenizer) {
  Inputs in;
  in.model_path = dir + kModelFile;
  in.impute_rules_text = read_file(dir + kImputeRulesFile);
  in.synth_rules_text = read_file(dir + kSynthRulesFile);
  const std::string corpus = read_file(dir + kTrainRowsFile);
  for (const auto row : util::split(corpus, '\n'))
    if (!row.empty()) in.train_rows.push_back(std::string(row) + "\n");
  if (in.train_rows.empty())
    throw UnusableInputs("empty n-gram corpus in " + dir);

  // Everything a set-up will load must load with this commit's code.
  try {
    if (lm::Transformer::load(in.model_path).vocab_size() !=
        tokenizer.vocab_size())
      throw UnusableInputs("checkpoint vocabulary differs from the tokenizer");
  } catch (const UnusableInputs&) {
    throw;
  } catch (const std::exception& e) {
    throw UnusableInputs(in.model_path + ": " + e.what());
  }
  for (const std::string* text : {&in.impute_rules_text, &in.synth_rules_text})
    if (!rules::parse_rules(*text, layout).ok())
      throw UnusableInputs("rule text in " + dir + " does not parse");
  return in;
}

}  // namespace perfbench
