// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload train_replay|serve_mixed --seed N
//             --seconds S --trace 0|1 [--trace-out DIR]
//   perfbench --calibrate
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// when untraced, the per-layer metrics when traced. Exits 1 when any
// output check failed, 2 on bad arguments. --calibrate times the fixed
// host-speed probe instead and prints one line,
// `calibration <total_ms> <chase_ns> <compute_ms>`.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train_replay|serve_mixed --seed N --seconds S "
               "--trace 0|1 [--trace-out DIR]\n",
               why);
  return 2;
}

bool ParseNumber(const std::string& s, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return !s.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--calibrate") {
    const perfbench::Calibration c = perfbench::Calibrate();
    std::printf("calibration %.6f %.6f %.6f\n", c.total_ms, c.chase_ns,
                c.compute_ms);
    return 0;
  }
  perfbench::RunOptions options;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    double num = 0;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      char* end = nullptr;
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0') {
        return Usage("bad --seed");
      }
    } else if (arg == "--seconds") {
      if (!ParseNumber(value, num) || num <= 0 || num > 600) {
        return Usage("bad --seconds");
      }
      options.seconds = num;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--trace-out") {
      options.trace_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }

  perfbench::WorkloadResult r;
  if (workload == "train_replay") {
    r = perfbench::RunTrainReplay(options);
  } else if (workload == "serve_mixed") {
    r = perfbench::RunServeMixed(options);
  } else {
    return Usage("unknown --workload");
  }

  std::printf("workload %s  seed %" PRIu64 "  seconds %g  trace %d\n",
              workload.c_str(), options.seed, options.seconds,
              options.trace ? 1 : 0);
  std::printf("sim_digest %s\n", r.sim_digest.c_str());
  const double failed_frac =
      r.attempted ? static_cast<double>(r.failed) /
                        static_cast<double>(r.attempted)
                  : 0.0;
  std::printf("failed_frac %.6f ratio  (%" PRIu64 " of %" PRIu64 ")\n",
              failed_frac, r.failed, r.attempted);
  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  const perfbench::Metrics& shown = options.trace ? r.per_layer : r.end_to_end;
  for (const auto& [name, m] : shown.items()) {
    std::printf("%-32s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              r.correct ? "true" : "false", r.attempted, r.failed,
              perfbench::MetricsJson(shown).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
