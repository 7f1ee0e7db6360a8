#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

Tail TailPercentile(const std::vector<double>& samples) {
  const std::size_t n = samples.size();
  Tail t;
  t.n = n;
  if (n == 0) return t;
  const auto p99_rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(n) - 1e-9));
  if (n - p99_rank >= 10) {
    t.q = 0.99;
  } else if (n >= 20) {
    t.q = static_cast<double>(n - 10) / static_cast<double>(n);
  } else {
    t.q = 0.5;
  }
  t.value = Percentile(samples, t.q);
  return t;
}

Tail BestWindowTail(const std::vector<std::vector<double>>& windows) {
  Tail out;
  out.windows = 0;
  for (const auto& w : windows) {
    if (w.empty()) continue;
    const Tail t = TailPercentile(w);
    if (out.windows == 0 || t.value < out.value) out.value = t.value;
    out.q = out.windows == 0 ? t.q : std::min(out.q, t.q);
    out.n = out.windows == 0 ? t.n : std::min(out.n, t.n);
    ++out.windows;
  }
  return out;
}

double BestWindowMedian(const std::vector<std::vector<double>>& windows) {
  double best = 0;
  bool any = false;
  for (const auto& w : windows) {
    if (w.empty()) continue;
    const double m = Median(w);
    if (!any || m < best) best = m;
    any = true;
  }
  return best;
}

double Median(const std::vector<double>& samples) {
  return Percentile(samples, 0.5);
}

BestOf::BestOf(std::size_t calls) : best_(calls), reps_(calls) {}

void BestOf::Add(std::size_t call, double ms) {
  if (reps_[call]++ == 0 || ms < best_[call]) best_[call] = ms;
}

std::vector<double> BestOf::best() const {
  std::vector<double> out;
  for (std::size_t i = 0; i < best_.size(); ++i) {
    if (reps_[i] > 0) out.push_back(best_[i]);
  }
  return out;
}

std::size_t BestOf::min_reps() const {
  std::size_t m = 0;
  for (std::size_t r : reps_) {
    if (r > 0 && (m == 0 || r < m)) m = r;
  }
  return m;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

// ------------------------------------------------------------------ spans --

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<int>(tracer_.spans_.size());
  saved_parent_ = tracer_.open_;
  Span s;
  s.name = name;
  s.parent = tracer_.open_;
  s.request = request;
  s.start_ms = MsSince(tracer_.epoch_);
  tracer_.spans_.push_back(std::move(s));
  tracer_.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end_ms =
      MsSince(tracer_.epoch_);
  tracer_.open_ = saved_parent_;
}

namespace {

void WriteEscaped(std::ofstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":";
    WriteEscaped(out, s.name);
    std::snprintf(buf, sizeof(buf),
                  ",\"start_ms\":%.6f,\"end_ms\":%.6f,\"parent\":%d,"
                  "\"request\":%" PRIu64 "}",
                  s.start_ms, s.end_ms, s.parent, s.request);
    out << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    if (static_cast<std::size_t>(s.parent) >= spans.size()) {
      throw std::invalid_argument("span parent out of range");
    }
    children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ms,
                                                              s.end_ms);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double cursor = s.start_ms;  // covered up to here
    for (auto [b, e] : kids) {
      b = std::max(b, cursor);
      e = std::min(e, s.end_ms);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    self[i] = (s.end_ms - s.start_ms) - covered;
  }
  return self;
}

std::map<std::string, LayerTime> ByName(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& t = out[spans[i].name];
    t.total_ms += spans[i].end_ms - spans[i].start_ms;
    t.self_ms += self[i];
    ++t.calls;
  }
  return out;
}

// ----------------------------------------------------------------- digest --

void Digest::Mix(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::Add(double makespan_us, std::uint64_t events) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(makespan_us));
  std::memcpy(&bits, &makespan_us, sizeof(bits));
  Mix(bits);
  Mix(events);
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
  return buf;
}

// ------------------------------------------------------------ case means --

bool CaseGeoMean::Add(const std::string& key, double value) {
  const auto [it, inserted] = cases_.emplace(key, value);
  return inserted || it->second == value;
}

double CaseGeoMean::value() const {
  if (cases_.empty()) return 0;
  double log_sum = 0;  // in key order, so the sum is exactly reproducible
  for (const auto& [key, v] : cases_) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(cases_.size()));
}

// ---------------------------------------------------------------- metrics --

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& [n, m] : items_) {
    if (n == name) {
      m = Metric{value, unit};
      return;
    }
  }
  items_.emplace_back(name, Metric{value, unit});
}

const Metric& Metrics::Get(const std::string& name) const {
  for (const auto& [n, m] : items_) {
    if (n == name) return m;
  }
  throw std::out_of_range("no metric " + name);
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  char buf[64];
  bool first = true;
  for (const auto& [name, m] : metrics.items()) {
    if (!first) out += ", ";
    first = false;
    // %.17g round-trips a double exactly; non-finite values are not JSON.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Calibration Calibrate() {
  constexpr int kReps = 3;
  constexpr std::size_t kEntries = (64u << 20) / sizeof(std::uint32_t);
  constexpr int kSteps = 1 << 20;
  constexpr int kChain = 20'000'000;
  // Sattolo's shuffle: one cycle through every entry, from a fixed seed.
  std::vector<std::uint32_t> next(kEntries);
  std::iota(next.begin(), next.end(), 0u);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = kEntries - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  std::vector<double> chase, chain, total;
  std::uint32_t p = 0;
  double acc = 1.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    for (int k = 0; k < kSteps; ++k) p = next[p];
    const double chase_ms = MsSince(t0);
    const auto t1 = Clock::now();
    for (int k = 0; k < kChain; ++k) acc = acc * 1.0000001 + 1e-9;
    const double chain_ms = MsSince(t1);
    chase.push_back(chase_ms * 1e6 / kSteps);
    chain.push_back(chain_ms);
    total.push_back(chase_ms + chain_ms);
  }
  // Keeps both loops from being optimised away.
  if (p == 0xffffffffu && acc < 0) std::abort();
  return {Median(chase), Median(chain), Median(total)};
}

}  // namespace perfbench
