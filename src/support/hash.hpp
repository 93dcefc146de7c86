// FNV-1a 64 digest folded one 64-bit word at a time, least significant
// byte first, so a digest does not depend on the host's byte order.
// Shared by the plan-cache key and the event logs' running digests.
#pragma once

#include <bit>
#include <cstdint>

namespace netconst {

struct Fnv1a {
  std::uint64_t state = 1469598103934665603ull;  // FNV offset basis

  void mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      state ^= (word >> (byte * 8)) & 0xffu;
      state *= 1099511628211ull;  // FNV prime
    }
  }
  /// Folds the value's bit pattern: -0.0 and +0.0 digest differently.
  void mix(double value) { mix(std::bit_cast<std::uint64_t>(value)); }
};

}  // namespace netconst
