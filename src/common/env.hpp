// Environment-variable knobs shared by the benches and the datapath.
//
// CAESAR_FULL_SCALE=1  — run figure benches at the paper's full trace scale
//                        (n ~ 27.7M packets) instead of the 10% default.
// CAESAR_SEED=<u64>    — override the global experiment seed.
// CAESAR_CSV_DIR=path  — additionally write each bench's figure series as
//                        CSV files into this directory (for plotting).
// CAESAR_SIMD=tier     — clamp the cache probe-kernel tier
//                        (simd_dispatch.hpp).
// CAESAR_PREFETCH_DIST — batched-path prefetch lookahead in packets,
//                        clamped to [1, 256] (default 64).
// CAESAR_HUGEPAGES=1   — madvise(MADV_HUGEPAGE) the SRAM counter bank
//                        (Linux only; a hint, never an error).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace caesar {

/// True when CAESAR_FULL_SCALE is set to a non-zero/true value.
[[nodiscard]] bool full_scale_requested();

/// Experiment seed: CAESAR_SEED if set, otherwise `fallback`.
[[nodiscard]] std::uint64_t experiment_seed(std::uint64_t fallback = 20180813);

/// Directory for CSV exports (CAESAR_CSV_DIR), if set.
[[nodiscard]] std::optional<std::string> csv_export_dir();

/// Generic boolean knob: true when `name` is set to anything but
/// "", "0", or "false".
[[nodiscard]] bool env_flag(const char* name);

/// Generic unsigned knob: `name` parsed as a base-10 u64, nullopt when
/// unset or not a number.
[[nodiscard]] std::optional<std::uint64_t> env_u64(const char* name);

}  // namespace caesar
