// Host-speed gauge: a fixed unit of work that calls none of the program's
// code, timed next to every timed chunk so that the throughputs and latencies
// can be scaled to a host of fixed speed (see README.md, "Host-speed scaling").
#include "bench.hpp"
#include "src/obs/obs.hpp"

namespace perfbench {

namespace {

/// The table the unit reads: 1 MiB, which stays in a core's own cache.
constexpr std::size_t kTableWords = std::size_t{1} << 18;
/// Three parts of about equal time on the reference host: arithmetic, reads
/// scattered over the table, and a sweep over a quarter of it.
constexpr int kArithmeticSteps = 10000;
constexpr int kScatteredReads = 8192;
constexpr std::size_t kSweepWords = kTableWords / 4;

inline std::uint64_t xorshift(std::uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

HostGauge::HostGauge() : table_(kTableWords) {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint32_t& w : table_) {
    x = xorshift(x);
    w = static_cast<std::uint32_t>(x);
  }
}

std::uint64_t HostGauge::unit() const {
  std::uint64_t x = 0x2545F4914F6CDD1DULL;  // The same unit every time.
  std::uint64_t acc = 0;
  for (int i = 0; i < kArithmeticSteps; ++i) {
    x = xorshift(x);
    acc += x * 3;
  }
  for (int i = 0; i < kScatteredReads; ++i) {
    x = xorshift(x);
    acc += table_[x & (kTableWords - 1)];
  }
  for (std::size_t i = 0; i < kSweepWords; ++i) acc += table_[i];
  return acc;
}

double HostGauge::sample_s() {
  // An untimed pass first loads the table into the cache, so what the legs
  // left there does not change the timed pass.
  sink_ = sink_ + unit();
  const std::uint64_t t0 = nsc::obs::now_ns();
  sink_ = sink_ + unit();
  return 1e-9 * static_cast<double>(nsc::obs::now_ns() - t0);
}

}  // namespace perfbench
