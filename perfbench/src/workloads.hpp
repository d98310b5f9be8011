// The benchmark's workloads. Each runs one seeded request trace through
// the library's public nn / serve APIs and fills a Result: the
// end-to-end metrics on an untraced run, the per-layer metrics of the
// layers it runs (plus the span file) on a traced one.
#pragma once

#include "common.hpp"

namespace pb {

Result run_asr_bilstm(const Options& opt, Tracer& tracer);
Result run_encode_ragged(const Options& opt, Tracer& tracer);
Result run_serve_frames(const Options& opt, Tracer& tracer);

}  // namespace pb
