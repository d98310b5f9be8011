// Runtime ISA dispatch for the library's compiled kernel planes.
//
// The hot loops are compiled once per ISA, in per-ISA translation units:
//   biq_kernels_scalar.cpp — portable baseline, always present
//   biq_kernels_avx2.cpp   — same source, compiled with -mavx2 -mfma
//                            (when CMake's BIQ_ENABLE_AVX2 is ON and the
//                            toolchain supports the flag)
//   biq_kernels_avx512.cpp — same source again with -mavx512f, widening
//                            the batched query to 16 lanes
// Every TU includes biq_kernels_impl.hpp (the BiQGEMM build/query/GEMV
// loops) followed by blocked_kernels_impl.hpp (the dense packed-panel
// microkernel), so all planes execute the *same* arithmetic in the same
// order — LUT keys and table layouts are bitwise identical across
// planes, and outputs agree to rounding (FMA contraction differs).
//
// Selection happens once, at engine construction, by probing
// cpu_features() — never with preprocessor guards — so one binary serves
// scalar CI runners, AVX2 hosts and AVX-512 hosts. The BIQ_ISA
// environment variable ("scalar" / "avx2" / "avx512") overrides
// auto-selection, which is how CI exercises fallback planes; an
// ExecContext ISA override re-routes a single call the same way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/context.hpp"
#include "matrix/view.hpp"

namespace biq {
class KeyMatrix;
}

namespace biq::engine {

/// One batched query-tile invocation (Algorithm 2 over a LUT tile).
struct QueryTileArgs {
  const KeyMatrix* keys = nullptr;  // planes[0 .. num_planes)
  std::size_t num_planes = 0;
  /// Per-plane scale vectors; nullptr = unit scales. Scale of plane q at
  /// output row i is alphas[q][i * alpha_stride + alpha_offset] — the
  /// stride/offset generalization serves the group-wise kernel, which
  /// stores one scale per (row, group).
  const std::vector<float>* alphas = nullptr;
  std::size_t alpha_stride = 1;
  std::size_t alpha_offset = 0;
  std::size_t t0 = 0;      // first table of the tile (key-column offset)
  std::size_t tcount = 0;  // tables in the tile
  unsigned mu = 0;
  // Tiles are always the plane's full query_lanes wide (engines pad a
  // partial batch tile with zero columns).
  const float* lut = nullptr;  // tile base; entry k of table g at
                               // lut[((g << mu) + k) * query_lanes]
  float* ytile = nullptr;      // rows x query_lanes accumulator, row-major
  std::size_t i0 = 0, i1 = 0;  // output-row range [i0, i1)
};

/// Function-pointer plane for one compiled ISA. BiqGemm resolves one of
/// these at construction and calls through it — no #if in the hot path.
struct BiqKernels {
  const char* isa = "";
  /// Batch-tile width the query loop vectorizes over (8 on the scalar
  /// and AVX2 planes, 16 on AVX-512).
  std::size_t query_lanes = 8;
  /// Interleaved LUT builders (contract of core/lut_builder.hpp):
  /// xt is [mu x lanes] row-major, lut receives 2^mu * lanes floats.
  void (*build_dp)(const float* xt, unsigned mu, std::size_t lanes,
                   float* lut) = nullptr;
  void (*build_mm)(const float* xt, unsigned mu, std::size_t lanes,
                   float* lut) = nullptr;
  /// Batched query over one full-width LUT tile, 8-bit / 16-bit key
  /// storage.
  void (*query_tile_u8)(const QueryTileArgs&) = nullptr;
  void (*query_tile_u16)(const QueryTileArgs&) = nullptr;
  /// GEMV query: sum of LUT hits of one key row over tables [0, tcount),
  /// lut holding tcount stacked flat tables of 2^mu entries.
  float (*gemv_row_u8)(const std::uint8_t* krow, std::size_t tcount,
                       unsigned mu, const float* lut) = nullptr;
  float (*gemv_row_u16)(const std::uint16_t* krow, std::size_t tcount,
                        unsigned mu, const float* lut) = nullptr;
};

/// Rows per packed panel of the blocked dense kernel (MR). Shared
/// between the packing code in gemm_blocked.cpp and the per-ISA
/// microkernel TUs — the panel layout is ISA-independent.
inline constexpr std::size_t kBlockedPanelRows = 8;

/// Per-ISA plane of the blocked dense GEMM microkernel (the
/// vendor-library stand-in), dispatched exactly like BiqKernels.
struct BlockedKernels {
  const char* isa = "";
  /// Y += packed panels [panel_begin, panel_end) times X. `packed` is
  /// panel-major (kBlockedPanelRows rows per panel, zero-padded past m);
  /// panels write disjoint Y rows, so ranges parallelize freely. X and Y
  /// are strided views — slices of larger buffers run without staging.
  void (*run_panels)(const float* packed, std::size_t m, std::size_t n,
                     ConstMatrixView x, MatrixView y, std::size_t panel_begin,
                     std::size_t panel_end) = nullptr;
};

/// Output rows per packed weight tile of the grouped-LUT (tmac-lut)
/// engine. Shared between the packer in gemm_tmac.cpp and the per-ISA
/// lookup-accumulate kernels — the tile layout is ISA-independent: for
/// each activation group g the tile stores 16 bytes, byte k holding row
/// k's nibble code in the low half and row k+16's in the high half.
inline constexpr std::size_t kTmacTileRows = 32;

/// One lookup-accumulate pass of the grouped-LUT engine: one weight
/// tile (kTmacTileRows output rows) against one batch column's tables.
struct TmacTileArgs {
  /// ngroups * 16 bytes of packed nibble codes for this row tile.
  const std::uint8_t* wtile = nullptr;
  /// ngroups * 32 bytes of per-group tables in split byte planes:
  /// entry v of group g is the int16 whose low byte is lut[g*32 + v]
  /// and high byte lut[g*32 + 16 + v] — the layout _mm256_shuffle_epi8
  /// consumes directly (two 16-byte in-register tables per group).
  const std::uint8_t* lut = nullptr;
  std::size_t ngroups = 0;
  /// kTmacTileRows int32 row sums, written (not accumulated) by the
  /// kernel.
  std::int32_t* acc = nullptr;
};

/// Per-ISA plane of the grouped-LUT lookup-accumulate kernel,
/// dispatched exactly like BiqKernels. The AVX-512 TU reuses the
/// 256-bit AVX2 body under EVEX encoding (in-register 16-entry table
/// lookup is a VPSHUFB shape; widening it needs AVX-512BW, which the
/// library's -mavx512f plane does not assume).
struct TmacKernels {
  const char* isa = "";
  void (*accumulate_tile)(const TmacTileArgs&) = nullptr;
};

/// True when the plane is linked into this binary.
[[nodiscard]] bool isa_compiled(KernelIsa isa) noexcept;

/// True when the plane is compiled AND the host CPU can execute it.
[[nodiscard]] bool isa_available(KernelIsa isa) noexcept;

/// Resolves a plane. kAuto returns the fastest available plane for this
/// host (honouring BIQ_ISA); explicit requests throw std::runtime_error
/// when isa_available() is false.
[[nodiscard]] const BiqKernels& select_kernels(KernelIsa isa);

/// Same resolution rules for the blocked dense microkernel plane.
[[nodiscard]] const BlockedKernels& select_blocked_kernels(KernelIsa isa);

/// Same resolution rules for the grouped-LUT lookup-accumulate plane.
[[nodiscard]] const TmacKernels& select_tmac_kernels(KernelIsa isa);

// Per-TU entry points (used by dispatch.cpp and the dispatch tests).
namespace kern_scalar {
[[nodiscard]] const BiqKernels& kernels() noexcept;
[[nodiscard]] const BlockedKernels& blocked_kernels() noexcept;
[[nodiscard]] const TmacKernels& tmac_kernels() noexcept;
}
#if BIQ_HAVE_AVX2_TU
namespace kern_avx2 {
[[nodiscard]] const BiqKernels& kernels() noexcept;
[[nodiscard]] const BlockedKernels& blocked_kernels() noexcept;
[[nodiscard]] const TmacKernels& tmac_kernels() noexcept;
}
#endif
#if BIQ_HAVE_AVX512_TU
namespace kern_avx512 {
[[nodiscard]] const BiqKernels& kernels() noexcept;
[[nodiscard]] const BlockedKernels& blocked_kernels() noexcept;
[[nodiscard]] const TmacKernels& tmac_kernels() noexcept;
}
#endif

}  // namespace biq::engine
