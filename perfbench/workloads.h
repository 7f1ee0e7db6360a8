// The benchmark's two workloads. Each one generates its inputs from a
// seed, drives only the library's public entry points, checks the outputs,
// and fills the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run). README.md explains why each workload exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "memory/reference.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory the traced run writes its spans to; empty = do not write.
  std::string trace_dir;
};

struct WorkloadResult {
  Metrics end_to_end;  // filled by every run; printed when untraced
  Metrics per_layer;   // filled by traced runs only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // non-OK statuses, verify mismatches, drops
  bool correct = true;
  std::vector<std::string> errors;
  std::vector<std::string> notes;  // human-readable report lines
  std::string sim_digest;

  void Fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

// ------------------------------------------------------------ train_replay --

// Buffers span 1 MiB to `max_mib`; verify runs on 1 call in 8.
struct TrainReplayShape {
  int nodes = 8;
  int gpus_per_node = 8;
  int ops_per_pass = 216;  // 4 of each (backend, collective, octave)
  int max_mib = 64;
  int setup_reps = 15;
};

struct TrainOp {
  int backend = 0;  // index into {ResCCL, MSCCL-like, NCCL-like}
  resccl::CollectiveOp op = resccl::CollectiveOp::kAllReduce;
  int kib = 1024;  // buffer size
  bool verify = false;
};

// The seeded call sequence of one pass: a fixed, balanced multiset of
// backend x collective x size octave, shuffled by the seed; the size never
// repeats back to back.
[[nodiscard]] std::vector<TrainOp> GenerateTrainOps(
    std::uint64_t seed, const TrainReplayShape& shape);

[[nodiscard]] WorkloadResult RunTrainReplay(const RunOptions& options,
                                            const TrainReplayShape& shape = {});

[[nodiscard]] WorkloadResult RunServeMixed(const RunOptions& options);

}  // namespace perfbench
