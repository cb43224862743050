// units.hpp — physical unit helpers.
//
// Conventions used across the library:
//   * time       : double seconds
//   * rates      : double FLOP/s (math) and bytes/s (memory)
//   * capacities : double bytes
//   * FLOP counts: double (a 175B-parameter forward pass overflows int64
//                  microbenchmark accumulations quickly; doubles carry
//                  53 bits of mantissa which is exact past 10^15 FLOPs)
#pragma once

namespace codesign {

// --- capacity -------------------------------------------------------------
constexpr double KiB = 1024.0;
constexpr double MiB = 1024.0 * KiB;
constexpr double GiB = 1024.0 * MiB;

constexpr double KB = 1e3;
constexpr double MB = 1e6;
constexpr double GB = 1e9;

// --- rates ----------------------------------------------------------------
constexpr double GFLOPS = 1e9;
constexpr double TFLOPS = 1e12;
constexpr double GBps = 1e9;   // bandwidth: gigabytes per second
constexpr double TBps = 1e12;  // bandwidth: terabytes per second

// --- time -----------------------------------------------------------------
constexpr double SECONDS = 1.0;
constexpr double MILLISECONDS = 1e-3;
constexpr double MICROSECONDS = 1e-6;
constexpr double NANOSECONDS = 1e-9;

/// Convert seconds to microseconds (for human-facing output).
constexpr double to_us(double seconds) { return seconds / MICROSECONDS; }

}  // namespace codesign
