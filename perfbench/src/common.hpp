// Shared pieces of the end-to-end benchmark: the seeded trace generator,
// statistics, correctness helpers, the span recorder and the result line.
// Everything here lives on the benchmark side; the library only ever sees
// the matrices these helpers generate.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "matrix/matrix.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command line of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;  // span file written at exit (traced runs only)
};

/// Request-trace generator (splitmix64). Deliberately not the library's
/// Rng: the workload seed drives only the trace, never the program.
class TraceRng {
 public:
  explicit TraceRng(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept;
  double uniform() noexcept;  // [0, 1)
  float normal() noexcept;    // standard normal (Box-Muller)
  std::size_t below(std::size_t bound) noexcept;
  /// Fisher-Yates permutation of `values`.
  template <typename T>
  void shuffle(std::vector<T>& values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::swap(values[i - 1], values[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// FNV-1a digest of everything the trace generator produced.
class Digest {
 public:
  void add(const void* data, std::size_t bytes) noexcept;
  void add_u64(std::uint64_t v) noexcept { add(&v, sizeof v); }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// rows x cols activations: the first `len` columns standard normal from
/// the trace generator, folded into the digest; the rest zero padding.
/// Built in place: a temporary per input would leave seed-dependent holes
/// in the heap and spread memory_mb between seeds.
[[nodiscard]] biq::Matrix random_input(std::size_t rows, std::size_t cols,
                                       std::size_t len, TraceRng& rng,
                                       Digest& digest);

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// CPU time of every thread of this process, seconds.
[[nodiscard]] double cpu_seconds();

/// Resident set size of this process, MiB (from /proc/self/status).
[[nodiscard]] double vm_rss_mb();

[[nodiscard]] bool all_finite(biq::ConstMatrixView m);
[[nodiscard]] bool bitwise_equal(biq::ConstMatrixView a,
                                 biq::ConstMatrixView b);

/// Signal-to-quantization-noise ratio of quantized outputs against their
/// fp32 reference, accumulated over any number of output blocks.
class Sqnr {
 public:
  void add(biq::ConstMatrixView reference, biq::ConstMatrixView quantized);
  [[nodiscard]] double db() const;

 private:
  double signal_ = 0.0;
  double noise_ = 0.0;
};

/// In-memory span recorder for traced runs: (name, start, end, parent,
/// request id) around each call the benchmark makes into the library.
/// Disabled recorders record nothing and allocate nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }
  /// Opens a span under the innermost open one; returns its id (-1 when
  /// disabled).
  int begin(const char* name, long long request = -1);
  void end(int id);
  /// Writes every recorded span as one JSON array.
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
    long long request;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, long long request = -1)
      : tracer_(tracer), id_(tracer.begin(name, request)) {}
  ~SpanScope() { tracer_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// One run's outcome: the JSON result printed as the last stdout line,
/// plus the human-readable notes printed before it.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> notes;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Marks one request failed (and the run incorrect) with a reason.
  void fail(const std::string& why);
};

[[nodiscard]] std::string result_json(const Result& r);

/// The six end-to-end metrics: setup_s (median of the set-ups), latency
/// p50/p90 over the per-request samples, activation columns completed per
/// second, the sampled SQNR and the RSS growth.
void report_end_to_end(Result& r, const std::vector<double>& setups,
                       const std::vector<double>& latency_s,
                       double cols_per_s, double sqnr_db, double memory_mb);

/// The kernel plane the library resolved on this host, and the machine.
[[nodiscard]] std::string resolved_isa();
[[nodiscard]] std::string machine_string();

}  // namespace pb
