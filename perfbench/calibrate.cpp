#include "calibrate.hpp"

#include <gmp.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace perfbench {

double reference_us() {
  static std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> v(std::size_t{1} << 19);  // 4 MiB
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = i * 0x9e3779b97f4a7c15ULL;
    return v;
  }();
  static std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();

  // Bignum: 2^1024 - 105 and a 160-bit exponent; each result feeds the next base.
  mpz_t m, b, e, r;
  mpz_init(r);
  mpz_init_set_ui(m, 1);
  mpz_mul_2exp(m, m, 1024);
  mpz_sub_ui(m, m, 105);
  mpz_init_set_ui(b, 0x1234567);
  mpz_init_set_ui(e, 1);
  mpz_mul_2exp(e, e, 160);
  mpz_sub_ui(e, e, 47);
  for (int i = 0; i < 24; ++i) {
    mpz_powm(r, b, e, m);
    mpz_add_ui(b, r, 1);
  }
  sink += mpz_get_ui(r);
  mpz_clears(m, b, e, r, nullptr);

  // Memory: a dependent read-modify-write walk over the table.
  std::uint64_t acc = 1;
  const std::size_t mask = table.size() - 1;
  for (int k = 0; k < 120'000; ++k) {
    acc = acc * 6364136223846793005ULL + table[(acc >> 21) & mask];
    table[(acc >> 7) & mask] ^= acc;
  }
  sink += acc;

  // Allocator and hashing: a map of shared buffers, overwritten at random.
  {
    std::unordered_map<std::uint64_t, std::shared_ptr<std::vector<std::uint8_t>>> map;
    std::uint64_t x = 7;
    for (int k = 0; k < 6000; ++k) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      auto& slot = map[x >> 52];
      slot = std::make_shared<std::vector<std::uint8_t>>(64 + (x >> 58), static_cast<std::uint8_t>(x));
      sink += slot->size();
    }
  }
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0).count();
}

namespace {

// Ticks are kept in a ring: at one per 10 ms it wraps after 11 minutes,
// far longer than any interval that is queried.
constexpr std::size_t kRing = std::size_t{1} << 16;
std::int64_t g_tick_start_ns[kRing];
double g_tick_us[kRing];
std::atomic<std::size_t> g_ticks{0};
std::uint64_t g_tick_table[4096];  // 32 KiB
volatile std::uint64_t g_tick_sink = 0;

// libstdc++'s steady_clock reads CLOCK_MONOTONIC, so the handler's
// timestamps and the benchmark's time points share one epoch.
std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t to_ns(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

// Async-signal-safe: no allocation and no library calls besides
// clock_gettime. 1000 products of 256-bit numbers folded back to 256 bits
// (the shape of the ec256 field arithmetic), then 10000 steps of a
// read-modify-write walk over a 32 KiB table; about 85 us on a 4-core
// x86-64 host.
void on_tick(int) {
  const int saved_errno = errno;
  const std::int64_t t0 = monotonic_ns();
  unsigned long long a[4] = {0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL, 0xa4093822299f31d0ULL,
                             0x082efa98ec4e6c89ULL};
  const unsigned long long b[4] = {0x452821e638d01377ULL, 0xbe5466cf34e90c6cULL,
                                   0xc0ac29b7c97c50ddULL, 0x3f84d5b5b5470917ULL};
  for (int it = 0; it < 1000; ++it) {
    unsigned long long prod[8] = {0};
    for (int i = 0; i < 4; ++i) {
      unsigned __int128 carry = 0;
      for (int j = 0; j < 4; ++j) {
        carry += static_cast<unsigned __int128>(a[i]) * b[j] + prod[i + j];
        prod[i + j] = static_cast<unsigned long long>(carry);
        carry >>= 64;
      }
      prod[i + 4] = static_cast<unsigned long long>(carry);
    }
    unsigned __int128 carry = 0;
    for (int i = 0; i < 4; ++i) {
      carry += static_cast<unsigned __int128>(prod[i + 4]) * 0x1000003D1ULL + prod[i];
      a[i] = static_cast<unsigned long long>(carry);
      carry >>= 64;
    }
    a[0] += static_cast<unsigned long long>(carry);
  }
  std::uint64_t acc = a[0] | 1;
  for (int k = 0; k < 10'000; ++k) {
    acc = acc * 6364136223846793005ULL + g_tick_table[(acc >> 40) & 4095];
    g_tick_table[(acc >> 13) & 4095] ^= acc;
  }
  g_tick_sink = acc;
  const std::int64_t t1 = monotonic_ns();
  const std::size_t i = g_ticks.load(std::memory_order_relaxed);
  g_tick_start_ns[i % kRing] = t0;
  g_tick_us[i % kRing] = static_cast<double>(t1 - t0) * 1e-3;
  g_ticks.store(i + 1, std::memory_order_release);
  errno = saved_errno;
}

}  // namespace

void start_ticks() {
  struct sigaction sa {};
  sa.sa_handler = on_tick;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGALRM, &sa, nullptr) != 0) throw std::runtime_error("sigaction failed");
  // Delivered to this thread only, never to the verify-pool workers.
  sigevent sev{};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGALRM;
  sev._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
  timer_t timer{};
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0) throw std::runtime_error("timer_create failed");
  itimerspec spec{};
  spec.it_interval.tv_nsec = std::chrono::nanoseconds(kTickPeriod).count();
  spec.it_value.tv_nsec = 1;
  if (timer_settime(timer, 0, &spec, nullptr) != 0) throw std::runtime_error("timer_settime failed");
}

TickStats ticks_between(std::chrono::steady_clock::time_point from,
                        std::chrono::steady_clock::time_point to) {
  const std::int64_t lo = to_ns(from), hi = to_ns(to);
  const std::size_t n = g_ticks.load(std::memory_order_acquire);
  std::vector<double> durations;
  for (std::size_t i = n; i > 0 && n - i < kRing; --i) {
    const std::int64_t at = g_tick_start_ns[(i - 1) % kRing];
    if (at < lo) break;
    if (at < hi) durations.push_back(g_tick_us[(i - 1) % kRing]);
  }
  TickStats s;
  s.count = durations.size();
  for (double d : durations) s.total_us += d;
  if (!durations.empty()) {
    std::nth_element(durations.begin(), durations.begin() + durations.size() / 2, durations.end());
    s.median_us = durations[durations.size() / 2];
  }
  return s;
}

}  // namespace perfbench
