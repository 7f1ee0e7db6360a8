// Measurement helpers for the end-to-end benchmark: the percentile rule,
// an in-memory span recorder with self-time accounting, the simulation
// digest, and the metric table every workload fills.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------- timing --

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ percentiles --

// Nearest-rank percentile: the smallest sample with at least q*n samples at
// or below it. q in (0, 1]. `samples` need not be sorted.
[[nodiscard]] double Percentile(std::vector<double> samples, double q);

// A tail latency reported by the "ten beyond" rule: p99 when at least ten
// samples lie above the p99 rank (n >= 1000); otherwise the highest
// percentile that still has ten samples above it (rank n - 10); below
// n = 20 no percentile above the median qualifies and the median is used.
struct Tail {
  double value = 0;
  double q = 0;       // the percentile actually reported, in (0, 1]
  std::size_t n = 0;  // sample count
  std::size_t windows = 1;  // windows the value is the best of
};
[[nodiscard]] Tail TailPercentile(const std::vector<double>& samples);

// Statistics of samples grouped into time windows that repeat one
// experiment (an open-loop stream at a fixed rate and mix): the statistic
// of each non-empty window, then the best (lowest) of them, as BestOf does
// for repeated calls. `q` and `n` of the tail describe the smallest window.
[[nodiscard]] Tail BestWindowTail(
    const std::vector<std::vector<double>>& windows);
[[nodiscard]] double BestWindowMedian(
    const std::vector<std::vector<double>>& windows);

[[nodiscard]] double Median(const std::vector<double>& samples);
[[nodiscard]] double Mean(const std::vector<double>& samples);

// Each call of a sequence that is repeated over and over, at its fastest
// repetition. Interference on a shared host only ever slows a call, and it
// comes and goes over seconds to minutes; the fastest of many repetitions
// spread over a run is far steadier from run to run than any statistic of
// all of them.
class BestOf {
 public:
  explicit BestOf(std::size_t calls);
  void Add(std::size_t call, double ms);
  // The best time of every call timed at least once, in call order.
  [[nodiscard]] std::vector<double> best() const;
  // Repetitions of the least-repeated call that was timed at all.
  [[nodiscard]] std::size_t min_reps() const;

 private:
  std::vector<double> best_;
  std::vector<std::size_t> reps_;
};

// ------------------------------------------------------------------ spans --

// One timed call into a layer. Times are ms since the recorder's epoch;
// `parent` indexes the recorder's span list (-1 for a root).
struct Span {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int parent = -1;
  std::uint64_t request = 0;
};

// Single-threaded, in-memory span recorder. When disabled, Scope costs one
// branch and records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
    int saved_parent_ = -1;
  };

  // Recording can be toggled between (never inside) spans, so one process
  // can interleave traced and untraced passes.
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Writes the spans as a JSON array to `path`. Returns false on I/O error.
  [[nodiscard]] bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  int open_ = -1;
};

// Self time of each span: its duration minus the part of its interval
// covered by its direct children (overlapping children count once).
[[nodiscard]] std::vector<double> SelfTimes(const std::vector<Span>& spans);

// Per span name: total inclusive time, total self time and call count.
struct LayerTime {
  double total_ms = 0;
  double self_ms = 0;
  std::uint64_t calls = 0;
};
[[nodiscard]] std::map<std::string, LayerTime> ByName(
    const std::vector<Span>& spans);

// ----------------------------------------------------------------- digest --

// FNV-1a 64 over simulated makespans and event counts, in call order.
class Digest {
 public:
  void Add(double makespan_us, std::uint64_t events);
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string Hex() const;

 private:
  void Mix(std::uint64_t word);
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Geometric mean of a deterministic per-case figure (a simulated bandwidth),
// each distinct case counted once: the mean depends on which cases ran, not
// on how often or in what order, so seeds that reorder the same cases agree
// exactly.
class CaseGeoMean {
 public:
  // Returns false when `key` was added before with a different value: the
  // figure was not deterministic.
  [[nodiscard]] bool Add(const std::string& key, double value);
  [[nodiscard]] double value() const;

 private:
  std::map<std::string, double> cases_;
};

// ---------------------------------------------------------------- metrics --

struct Metric {
  double value = 0;
  std::string unit;
};

// Insertion-ordered metric table; Set on an existing name overwrites it.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const Metric& Get(const std::string& name) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Metric>>& items()
      const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, Metric>> items_;
};

// Renders {"name": {"value": v, "unit": "u"}, ...} with full precision.
[[nodiscard]] std::string MetricsJson(const Metrics& metrics);

// Process peak resident set size in MB (getrusage).
[[nodiscard]] double PeakRssMb();

// A fixed host-speed probe: a dependent pointer chase over 64 MiB (memory
// latency, which the simulator follows) plus a dependent floating-point
// chain (core speed). Runs three times and returns the median of each
// part. The same kernel takes the same time on an unchanged host, so a
// shift between runs shows the host, not the program, moved. It allocates
// 64 MiB; run it in its own process so the workloads' peak RSS stays clean.
struct Calibration {
  double chase_ns = 0;    // per access
  double compute_ms = 0;  // for the whole chain
  double total_ms = 0;    // chase and chain together
};
[[nodiscard]] Calibration Calibrate();

}  // namespace perfbench
