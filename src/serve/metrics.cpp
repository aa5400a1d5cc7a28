// The library's single clock read lives here — see metrics.hpp for the
// determinism contract and tools/srm-lint (wallclock rule) for the
// enforcement: every other file that names a clock fails the lint.
#include "serve/metrics.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

namespace srm::serve {

std::int64_t monotonic_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t LatencySeries::bucket_of(std::uint64_t us) {
  if (us < (1U << kSubBits)) return static_cast<std::size_t>(us);
  // The top kSubBits + 1 bits of us: the leading one picks the range, the
  // next kSubBits the bucket inside it.
  const int shift = static_cast<int>(std::bit_width(us)) - 1 - kSubBits;
  return (static_cast<std::size_t>(shift + 1) << kSubBits) +
         static_cast<std::size_t>((us >> shift) & ((1U << kSubBits) - 1));
}

std::uint64_t LatencySeries::bucket_last(std::size_t bucket) {
  if (bucket < (1U << kSubBits)) return bucket;
  const auto shift = static_cast<int>(bucket >> kSubBits) - 1;
  const std::uint64_t lead =
      (1U << kSubBits) | (bucket & ((1U << kSubBits) - 1));
  return (lead << shift) + ((1ULL << shift) - 1);
}

void LatencySeries::record(std::int64_t us) {
  const auto value = static_cast<std::uint64_t>(std::max<std::int64_t>(us, 0));
  ++buckets_[bucket_of(value)];
  ++count_;
  max_us_ = std::max(max_us_, static_cast<std::int64_t>(value));
}

std::int64_t LatencySeries::quantile(double q) const {
  if (count_ == 0) return 0;
  // The rank the sorted-sample quantile used: round(q (n - 1)), 0-based.
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1) + 0.5);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen > rank) {
      return std::min(static_cast<std::int64_t>(bucket_last(b)), max_us_);
    }
  }
  return max_us_;
}

support::Json LatencySeries::summary() const {
  using support::Json;
  Json out = Json::Object{};
  out.set("count", Json::from_unsigned(count_));
  out.set("p50_us", quantile(0.50));
  out.set("p90_us", quantile(0.90));
  out.set("p99_us", quantile(0.99));
  out.set("max_us", max_us_);
  return out;
}

}  // namespace srm::serve
