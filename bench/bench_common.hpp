// Shared helpers for the figure/table reproduction binaries. All benches
// report through these so machine description (describe_machine) and
// kernel naming (EngineRegistry names) stay uniform across tables, and
// benches invoked with --json additionally emit machine-readable
// BENCH_<name>.json records for the perf trajectory.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/gemm_engine.hpp"
#include "engine/registry.hpp"
#include "util/cpu_features.hpp"
#include "util/stats.hpp"

namespace biq::bench {

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("==================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("%s\n", describe_machine().c_str());
  std::printf("==================================================================\n\n");
}

/// One line per registered engine — printed by benches that sweep the
/// registry so the table rows are attributable to engine names.
inline void print_engine_lineup() {
  std::printf("registered engines:\n");
  for (const EngineSpec& spec : EngineRegistry::instance().specs()) {
    std::printf("  %-16s %s\n", spec.name.c_str(), spec.summary.c_str());
  }
  std::printf("\n");
}

/// Canonical column label for an engine's runtime ("biqgemm us", ...).
inline std::string engine_col(const std::string& name,
                              const char* unit = "us") {
  return name + " " + unit;
}

/// Median wall time of fn in seconds (at least `reps` runs and
/// `min_seconds` of accumulated time).
template <typename Fn>
double median_seconds(Fn&& fn, std::size_t reps = 3, double min_seconds = 0.05) {
  return summarize(measure_repetitions(std::forward<Fn>(fn), reps, min_seconds))
      .median;
}

// Cross-cutting bench flags, shared by every binary in bench/:
//   --json          emit machine-readable BENCH_<name>.json (see BenchJson)
//   --repeats N     cap each measurement at exactly N repetitions (drops
//                   the accumulated-time floor) — CI passes a small N to
//                   bound wall time; without the flag the defaults of
//                   median_seconds are unchanged.
//   --engines a,b,c restrict an engine sweep to the named engines — CI
//                   times the LUT-family subset without paying for all
//                   registered engines; without the flag sweeps are
//                   unchanged.
//   --threads N     worker-thread count for benches that execute on an
//                   ExecContext-bound ThreadPool (model_forward,
//                   serve_load); without the flag each bench keeps its
//                   own default (usually serial).

/// The N of `--repeats N`, or 0 when the flag is absent.
inline std::size_t parse_repeats(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--repeats") {
      return std::strtoul(argv[i + 1], nullptr, 10);
    }
  }
  return 0;
}

/// The N of `--threads N`, or `fallback` when the flag is absent.
inline unsigned parse_threads(int argc, char** argv, unsigned fallback = 1) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--threads") {
      const unsigned n =
          static_cast<unsigned>(std::strtoul(argv[i + 1], nullptr, 10));
      return n == 0 ? fallback : n;
    }
  }
  return fallback;
}

/// The comma-separated names of `--engines a,b,c`, or empty when the
/// flag is absent (= no filter).
inline std::vector<std::string> parse_engines(int argc, char** argv) {
  std::vector<std::string> out;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) != "--engines") continue;
    std::string_view list(argv[i + 1]);
    while (!list.empty()) {
      const std::size_t comma = list.find(',');
      const std::string_view name = list.substr(0, comma);
      if (!name.empty()) out.emplace_back(name);
      if (comma == std::string_view::npos) break;
      list.remove_prefix(comma + 1);
    }
  }
  return out;
}

/// True when `name` passes the --engines filter (an empty filter — flag
/// absent — passes everything).
inline bool engine_enabled(const std::vector<std::string>& filter,
                           std::string_view name) {
  if (filter.empty()) return true;
  for (const std::string& f : filter) {
    if (f == name) return true;
  }
  return false;
}

/// median_seconds honoring an explicit --repeats: repeats == 0 (flag
/// absent) keeps the defaults; otherwise exactly `repeats` runs.
template <typename Fn>
double bench_seconds(Fn&& fn, std::size_t repeats) {
  return repeats == 0
             ? median_seconds(std::forward<Fn>(fn))
             : median_seconds(std::forward<Fn>(fn), repeats, /*min_seconds=*/0.0);
}

/// Interleaved A/B medians: runs a and b alternately (a,b,a,b,...) and
/// returns {median(a), median(b)}. Timing the variants as back-to-back
/// blocks lets slow frequency/container drift decide effects smaller
/// than the drift (~5% here); alternating rep-by-rep exposes both sides
/// to the same drift, so the medians isolate what the code changed.
/// `repeats` counts a/b pairs with bench_seconds' --repeats semantics
/// (0 = defaults: at least 3 pairs and 50 ms of accumulated time).
template <typename FnA, typename FnB>
std::pair<double, double> interleaved_ab_seconds(FnA&& a, FnB&& b,
                                                 std::size_t repeats) {
  using clock = std::chrono::steady_clock;
  const std::size_t min_pairs = repeats == 0 ? 3 : repeats;
  const double min_seconds = repeats == 0 ? 0.05 : 0.0;
  std::vector<double> sa, sb;
  sa.reserve(min_pairs);
  sb.reserve(min_pairs);
  double total = 0.0;
  while (sa.size() < min_pairs || total < min_seconds) {
    auto t0 = clock::now();
    a();
    const double da = std::chrono::duration<double>(clock::now() - t0).count();
    t0 = clock::now();
    b();
    const double db = std::chrono::duration<double>(clock::now() - t0).count();
    sa.push_back(da);
    sb.push_back(db);
    total += da + db;
    if (sa.size() > 100000) break;  // runaway guard for ~0-cost fns
  }
  return {summarize(sa).median, summarize(sb).median};
}

/// Prints the shared usage line to stderr and exits with status 2.
[[noreturn]] inline void usage_exit(const char* prog, std::string_view bad) {
  std::fprintf(stderr,
               "%s: bad argument '%.*s'\n"
               "usage: %s [SIZE ...] [--json] [--repeats N] "
               "[--engines a,b,c] [--threads N]\n"
               "  SIZE arguments are unsigned integers; see the bench's "
               "source header for their meaning and defaults.\n",
               prog, static_cast<int>(bad.size()), bad.data(), prog);
  std::exit(2);
}

/// True when `s` is a non-empty run of decimal digits.
inline bool is_unsigned(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

/// The positional size arguments, in order, skipping --json,
/// --repeats <N>, --engines <list> and --threads <N> wherever they
/// appear — so flag order never shifts a bench's sizes. Any other
/// argument (--help, a typo, a size that is not an unsigned integer, a
/// flag missing its value) goes to usage_exit instead of running a bench
/// with sizes silently read as 0; benches without size arguments call
/// this first thing in main just for that check.
inline std::vector<std::size_t> check_args(int argc, char** argv) {
  std::vector<std::size_t> sizes;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a(argv[i]);
    if (a == "--json") continue;
    if (a == "--repeats" || a == "--engines" || a == "--threads") {
      if (i + 1 == argc) usage_exit(argv[0], a);
      const std::string_view value(argv[++i]);  // skip the flag's value too
      if (a != "--engines" && !is_unsigned(value)) usage_exit(argv[0], value);
      continue;
    }
    if (!is_unsigned(a)) usage_exit(argv[0], a);
    sizes.push_back(std::strtoul(argv[i], nullptr, 10));
  }
  return sizes;
}

/// The idx-th (1-based) positional size of check_args, or `fallback`
/// when there are fewer.
inline std::size_t positional_or(int argc, char** argv, int idx,
                                 std::size_t fallback) {
  const std::vector<std::size_t> sizes = check_args(argc, argv);
  const auto i = static_cast<std::size_t>(idx);
  return i >= 1 && i <= sizes.size() ? sizes[i - 1] : fallback;
}

inline std::string us(double seconds, int precision = 1) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, seconds * 1e6);
  return buf;
}

inline std::string ms(double seconds, int precision = 2) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, seconds * 1e3);
  return buf;
}

// ------------------------------------------------------- --json records

/// One key/value of a JSON record; build with jstr / jnum / jint.
struct JsonField {
  std::string key;
  std::string rendered;  // value, already JSON-encoded
};

inline JsonField jstr(std::string_view key, std::string_view value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return {std::string(key), std::move(out)};
}

inline JsonField jnum(std::string_view key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return {std::string(key), buf};
}

inline JsonField jint(std::string_view key, long long value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", value);
  return {std::string(key), buf};
}

/// Machine-readable bench output, enabled by a --json argv flag: each
/// record() appends one object, and the destructor writes
/// BENCH_<name>.json ({bench, machine, records: [...]}) into the
/// working directory. Without --json, calls are no-ops, so benches wire
/// records in unconditionally next to their table rows.
class BenchJson {
 public:
  BenchJson(int argc, char** argv, std::string name)
      : name_(std::move(name)) {
    for (int i = 1; i < argc; ++i) {
      if (std::string_view(argv[i]) == "--json") enabled_ = true;
    }
  }

  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void record(std::initializer_list<JsonField> fields) {
    record(std::vector<JsonField>(fields));
  }

  void record(const std::vector<JsonField>& fields) {
    if (!enabled_) return;
    std::string obj = "{";
    bool first = true;
    for (const JsonField& f : fields) {
      if (!first) obj += ", ";
      first = false;
      obj += "\"" + f.key + "\": " + f.rendered;
    }
    obj += "}";
    records_.push_back(std::move(obj));
  }

  ~BenchJson() {
    if (!enabled_) return;
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "BenchJson: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": %s,\n  \"machine\": %s,\n  \"records\": [",
                 jstr("", name_).rendered.c_str(),
                 jstr("", describe_machine()).rendered.c_str());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      std::fprintf(f, "%s\n    %s", i == 0 ? "" : ",", records_[i].c_str());
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu records)\n", path.c_str(), records_.size());
  }

 private:
  std::string name_;
  bool enabled_ = false;
  std::vector<std::string> records_;
};

}  // namespace biq::bench
