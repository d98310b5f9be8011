#include "common.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "engine/dispatch.hpp"
#include "util/cpu_features.hpp"

namespace pb {

std::uint64_t TraceRng::next() noexcept {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double TraceRng::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

float TraceRng::normal() noexcept {
  const double u1 = 1.0 - uniform();  // (0, 1]
  const double u2 = uniform();
  return static_cast<float>(std::sqrt(-2.0 * std::log(u1)) *
                            std::cos(6.283185307179586 * u2));
}

std::size_t TraceRng::below(std::size_t bound) noexcept {
  return static_cast<std::size_t>(uniform() * static_cast<double>(bound));
}

void Digest::add(const void* data, std::size_t bytes) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

biq::Matrix random_input(std::size_t rows, std::size_t cols, std::size_t len,
                         TraceRng& rng, Digest& digest) {
  biq::Matrix m(rows, cols);  // zero pad columns
  const std::size_t n = rows * len;
  for (std::size_t i = 0; i < n; ++i) m.data()[i] = rng.normal();
  digest.add_u64(rows);
  digest.add_u64(len);
  digest.add(m.data(), n * sizeof(float));
  return m;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double vm_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("VmRSS not found in /proc/self/status");
}

bool all_finite(biq::ConstMatrixView m) {
  for (std::size_t j = 0; j < m.cols(); ++j) {
    const float* c = m.data() + j * m.ld();
    for (std::size_t i = 0; i < m.rows(); ++i) {
      if (!std::isfinite(c[i])) return false;
    }
  }
  return true;
}

bool bitwise_equal(biq::ConstMatrixView a, biq::ConstMatrixView b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t j = 0; j < a.cols(); ++j) {
    if (std::memcmp(a.data() + j * a.ld(), b.data() + j * b.ld(),
                    a.rows() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

void Sqnr::add(biq::ConstMatrixView reference, biq::ConstMatrixView quantized) {
  if (reference.rows() != quantized.rows() ||
      reference.cols() != quantized.cols()) {
    throw std::invalid_argument("Sqnr::add: shape mismatch");
  }
  for (std::size_t j = 0; j < reference.cols(); ++j) {
    const float* r = reference.data() + j * reference.ld();
    const float* q = quantized.data() + j * quantized.ld();
    for (std::size_t i = 0; i < reference.rows(); ++i) {
      const double d = static_cast<double>(q[i]) - r[i];
      signal_ += static_cast<double>(r[i]) * r[i];
      noise_ += d * d;
    }
  }
}

double Sqnr::db() const {
  if (noise_ == 0.0) return 300.0;  // bit-exact: report a finite ceiling
  return 10.0 * std::log10(signal_ / noise_);
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

int Tracer::begin(const char* name, long long request) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  const double now = seconds_between(origin_, Clock::now());
  spans_.push_back(Span{name, now, now, parent, request});
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end =
      seconds_between(origin_, Clock::now());
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                 "\"end_s\":%.9f,\"parent\":%d,\"request\":%lld}%s\n",
                 i, s.name, s.start, s.end, s.parent, s.request,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

void Result::fail(const std::string& why) {
  correct = false;
  ++failed;
  if (failed <= 8) note("FAILED: " + why);
}

std::string result_json(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, vu] = r.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", vu.first);
    out += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}}";
  return out;
}

void report_end_to_end(Result& r, const std::vector<double>& setups,
                       const std::vector<double>& latency_s,
                       double cols_per_s, double sqnr_db, double memory_mb) {
  std::vector<double> lat_ms;
  for (const double s : latency_s) lat_ms.push_back(s * 1e3);
  r.note("samples: " + std::to_string(lat_ms.size()) +
         " request latencies (p50, p90), " + std::to_string(setups.size()) +
         " set-ups (setup_s)");
  r.metric("setup_s", median(setups), "s");
  r.metric("latency_ms_p50", quantile(lat_ms, 0.5), "ms");
  r.metric("latency_ms_p90", quantile(lat_ms, 0.9), "ms");
  r.metric("tokens_per_s", cols_per_s, "1/s");
  r.metric("output_sqnr_db", sqnr_db, "dB");
  r.metric("memory_mb", memory_mb, "MB");
}

std::string resolved_isa() {
  return biq::engine::select_kernels(biq::KernelIsa::kAuto).isa;
}

std::string machine_string() { return biq::describe_machine(); }

}  // namespace pb
