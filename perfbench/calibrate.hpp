// Host-speed references for the benchmark's time metrics.
//
// The host is shared: other tenants can slow this process by 1.4-2.7x for
// seconds to minutes at a time, and CPU time slows with wall time. So run.py
// states every time at a fixed host speed, estimated from two fixed
// computations that use only GMP, the C++ standard library and this file's
// own loops, so that no change to the library moves them:
//
//  - the bracket reference, run just before and just after each timed
//    interval: bignum, memory and allocator work, which tracks the memory-
//    heavy workloads; and
//  - the tick reference, run in a signal handler every kTickPeriod on the
//    timed thread itself, inside the timed interval: 256-bit limb products
//    and an L1-sized table walk, which tracks contention while the DKG runs
//    and suits the compute-heavy workloads.
//
// run.py divides each time by the geometric mean of the two slowdowns,
// which held steadier across the workloads than either reference alone
// (measurements in perfbench/README.md).
#pragma once

#include <chrono>
#include <cstddef>

namespace perfbench {

/// Runs the bracket reference once and returns its wall time in
/// microseconds: a chain of 1024-bit modular exponentiations, a dependent
/// read-modify-write walk over a 4 MiB table and a hash map of shared
/// buffers overwritten at random.
double reference_us();

/// Arms a timer that interrupts the calling thread every kTickPeriod (the
/// first time at once) and runs the tick reference in the handler. Call once,
/// from the thread that runs the DKGs.
void start_ticks();

constexpr std::chrono::milliseconds kTickPeriod{10};

struct TickStats {
  std::size_t count = 0;
  double total_us = 0;   // time spent in the handler
  double median_us = 0;  // median duration of one tick reference
};

/// The ticks that started in [from, to).
TickStats ticks_between(std::chrono::steady_clock::time_point from,
                        std::chrono::steady_clock::time_point to);

}  // namespace perfbench
