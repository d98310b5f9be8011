// End-to-end benchmark entry point.
//
//   perfbench --workload <asr-bilstm|encode-ragged|serve-frames>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Prints notes (machine, resolved kernel plane, trace digest, sample
// counts) and, as the last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones a workload runs (and writes the recorded spans to --trace-out).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<asr-bilstm|encode-ragged|serve-frames> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why.c_str());
  std::exit(2);
}

pb::Options parse(int argc, char** argv) {
  pb::Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
        have_seconds = true;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
        have_trace = true;
      } else if (key == "--trace-out") {
        opt.trace_out = value;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const pb::Options opt = parse(argc, argv);
#if defined(__GLIBC__)
  // Pin glibc's mmap threshold at its default (128 KiB). Left dynamic, it
  // rises after the first large free, so freed set-up buffers (fp32
  // weights before quantization) stay in the heap in a layout that
  // depends on thread timing, and memory_mb spread by 15 % between runs.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  pb::Tracer tracer(opt.trace);
  pb::Result result;
  try {
    if (opt.workload == "asr-bilstm") {
      result = pb::run_asr_bilstm(opt, tracer);
    } else if (opt.workload == "encode-ragged") {
      result = pb::run_encode_ragged(opt, tracer);
    } else if (opt.workload == "serve-frames") {
      result = pb::run_serve_frames(opt, tracer);
    } else {
      usage("unknown workload " + opt.workload);
    }
    if (opt.trace && !opt.trace_out.empty()) tracer.write(opt.trace_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("workload %s seed %llu | %s | kernel plane %s\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              pb::machine_string().c_str(), pb::resolved_isa().c_str());
  for (const std::string& line : result.notes) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("%s\n", pb::result_json(result).c_str());
  return 0;
}
