// Service observability: wall-clock latency measurement and aggregate
// counters for the estimation service.
//
// Determinism boundary: this module is the ONLY place in the library that
// reads a clock (monotonic_ns(), implemented in metrics.cpp — the
// documented srm-lint wallclock exemption). Everything it produces is
// advisory telemetry: latency numbers ride in the `latency_us` meta field
// and the `stats` query payload, both of which are explicitly OUTSIDE the
// byte-identity contract (`--no-meta` strips the former; the latter is the
// documented exempt payload). No clock value may flow into a result body.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "support/json.hpp"

namespace srm::serve {

/// Monotonic nanoseconds since an arbitrary epoch. Only for durations.
[[nodiscard]] std::int64_t monotonic_ns();

/// Started at construction; elapsed_us() is a duration, never a timestamp.
class Stopwatch {
 public:
  Stopwatch() : start_ns_(monotonic_ns()) {}
  [[nodiscard]] std::int64_t elapsed_us() const {
    return (monotonic_ns() - start_ns_) / 1000;
  }

 private:
  std::int64_t start_ns_;
};

/// One tier's latencies (microseconds) in a fixed log-bucket histogram:
/// values below 16 get a bucket each, and every power-of-two range above
/// is split into 16 equal buckets, so a bucket spans at most 1/16 of its
/// lower edge. record() is O(1) and memory is constant however many
/// requests arrive. count and max are exact; each quantile is exact to one
/// bucket.
class LatencySeries {
 public:
  void record(std::int64_t us);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// {count, p50, p90, p99, max} — zeros when empty. A quantile reports the
  /// largest value its bucket can hold, capped at the exact max, so it
  /// lies in the bucket of the sample it stands for.
  [[nodiscard]] support::Json summary() const;

 private:
  static constexpr int kSubBits = 4;
  // Enough for every non-negative std::int64_t: values below 2^63.
  static constexpr std::size_t kBuckets = (64 - kSubBits) << kSubBits;

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t us);
  [[nodiscard]] static std::uint64_t bucket_last(std::size_t bucket);
  [[nodiscard]] std::int64_t quantile(double q) const;

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::int64_t max_us_ = 0;
};

}  // namespace srm::serve
