// perfbench_calibrate: measures how fast the host runs right now, so that
// run.py can express op times at a fixed reference host speed (see
// README.md, "Host-speed normalization").
//
//   perfbench_calibrate
//       For every byte read from stdin, runs two fixed kernels and writes
//       one line "ALU_NS CHASE_NS" to stdout; exits at end of input.
//
// The kernels never change and do not touch the engine, so a change to
// the program moves the op times but not the calibration:
//   - alu: a dependent chain of 64-bit multiply/xor-shift steps (core
//     clock and sharing of the core);
//   - chase: a walk along one random cycle through a 16 MiB array
//     (cache and memory latency).
// This is a program of its own, built with fixed flags and linked with
// nothing from the repository, so it also keeps its own peak memory out of
// the processes the benchmark measures.
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

namespace {

constexpr int kAluSteps = 1500000;
constexpr std::size_t kChaseSlots = std::size_t{1} << 22;  // 16 MiB of u32
constexpr int kChaseSteps = 20000;

volatile uint64_t g_sink;

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

uint64_t Lcg(uint64_t x) {
  return x * 6364136223846793005ull + 1442695040888963407ull;
}

int64_t Alu() {
  const int64_t t0 = NowNs();
  uint64_t x = 1;
  for (int i = 0; i < kAluSteps; ++i) x = Lcg(x) ^ (x >> 17);
  g_sink = x;  // the volatile store keeps the loop before the clock read
  return NowNs() - t0;
}

/// One cycle through all slots (Sattolo's shuffle), so the walk never
/// settles into a short loop that fits in cache.
std::vector<uint32_t> ChaseCycle() {
  std::vector<uint32_t> next(kChaseSlots);
  for (std::size_t i = 0; i < kChaseSlots; ++i) {
    next[i] = static_cast<uint32_t>(i);
  }
  uint64_t s = 7;
  for (std::size_t i = kChaseSlots - 1; i > 0; --i) {
    s = Lcg(s);
    std::swap(next[i], next[(s >> 33) % i]);
  }
  return next;
}

int64_t Chase(const std::vector<uint32_t>& next, uint32_t* at) {
  const int64_t t0 = NowNs();
  uint32_t p = *at;
  for (int i = 0; i < kChaseSteps; ++i) p = next[p];
  g_sink = p;
  *at = p;
  return NowNs() - t0;
}

}  // namespace

int main() {
  const std::vector<uint32_t> next = ChaseCycle();
  uint32_t at = 0;
  char c;
  for (;;) {
    const ssize_t n = read(0, &c, 1);
    if (n == 0) return 0;
    if (n < 0) {
      if (errno == EINTR) continue;
      return 1;
    }
    const int64_t alu = Alu();
    const int64_t chase = Chase(next, &at);
    std::printf("%lld %lld\n", static_cast<long long>(alu),
                static_cast<long long>(chase));
    std::fflush(stdout);
  }
}
