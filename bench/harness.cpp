#include "harness.hpp"

namespace mcs::bench {

SweepOptions options_from_args(const util::Args& args) {
  SweepOptions opt;
  if (args.get_flag("paper-scale")) {
    opt.warmup = 10'000;     // Sec. 4: 10k warm-up,
    opt.measured = 100'000;  // 100k measured messages
  }
  opt.warmup = args.get_int("warmup", opt.warmup);
  opt.measured = args.get_int("measured", opt.measured);
  opt.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long>(opt.seed)));
  opt.run_sim = !args.get_flag("no-sim");
  opt.threads = static_cast<int>(args.get_int("threads", 0));
  return opt;
}

std::string scenario_path(const std::string& name) {
  return exp::default_scenario_dir() + "/" + name + ".ini";
}

}  // namespace mcs::bench
