// lejit_perfbench — the repository benchmark's measuring program.
//
//   lejit_perfbench prepare --out DIR
//   lejit_perfbench run --inputs DIR --workload NAME --seed N --seconds S
//                       --trace 0|1 [--trace-out FILE] [--corrupt-row]
//
// `prepare` regenerates the fixed inputs; `run` measures one workload and
// prints its report as the last line of stdout. perfbench/run.py drives both.
// Exit codes: 0 ok, 1 an output check failed, 2 usage or I/O error, 3 the
// inputs do not load with this build.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "lejit_perfbench: " << why
            << "\nusage: lejit_perfbench prepare --out DIR\n"
               "       lejit_perfbench run --inputs DIR --workload NAME "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--corrupt-row]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing command");
  const std::string command = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (!flag.starts_with("--")) return usage("unexpected argument " + flag);
    if (flag == "--corrupt-row") {
      args[flag] = "1";
    } else if (i + 1 < argc) {
      args[flag] = argv[++i];
    } else {
      return usage(flag + " needs a value");
    }
  }
  const auto get = [&](const std::string& flag) -> const std::string& {
    static const std::string kMissing;
    const auto it = args.find(flag);
    return it == args.end() ? kMissing : it->second;
  };

  try {
    if (command == "prepare") {
      if (get("--out").empty()) return usage("prepare needs --out");
      return perfbench::prepare(get("--out"));
    }
    if (command == "run") {
      for (const char* flag :
           {"--inputs", "--workload", "--seed", "--seconds", "--trace"})
        if (get(flag).empty()) return usage(std::string("run needs ") + flag);
      perfbench::RunOptions o;
      o.inputs_dir = get("--inputs");
      o.workload = get("--workload");
      o.seed = std::stoull(get("--seed"));
      o.seconds = std::stod(get("--seconds"));
      o.trace = get("--trace") == "1";
      o.trace_out = get("--trace-out");
      o.corrupt_row = args.count("--corrupt-row") != 0;
      return perfbench::run(o);
    }
    return usage("unknown command " + command);
  } catch (const perfbench::UnusableInputs& e) {
    std::cerr << "lejit_perfbench: unusable inputs: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "lejit_perfbench: " << e.what() << "\n";
    return 2;
  }
}
