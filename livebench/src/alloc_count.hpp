// Counting global allocator for the benchmark binary. Every operator new
// in the process (the program's libraries included) bumps one relaxed
// counter, so a caller can diff it around a call to learn how often
// that call allocated.
#pragma once

#include <cstdint>

namespace livebench {

/// Heap allocations made through operator new since process start.
std::uint64_t alloc_count() noexcept;

}  // namespace livebench
