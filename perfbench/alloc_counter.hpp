// Heap-allocation counting for the traced run.
//
// alloc_counter.cpp replaces the global operator new of the benchmark
// binaries. While counting is off (every untraced run) the replacement
// costs one relaxed atomic load per allocation; while it is on, each
// allocation bumps a counter private to the allocating thread, so a
// probe on one thread is not polluted by serve workers running
// elsewhere.
#pragma once

#include <cstdint>

namespace perfbench {

void set_alloc_counting(bool on);

// Allocations made by the calling thread while counting was on.
int64_t thread_allocs();

}  // namespace perfbench
