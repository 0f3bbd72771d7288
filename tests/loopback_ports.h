// Listen-port bases for tests that run several servers on loopback.
//
// ctest runs test processes in parallel. A base derived from the pid makes
// neighbouring pids share ports (base+1..3 overlaps base'+1..3), so bases are
// drawn at random instead, 8-aligned so two clusters either share a block
// (one bind fails and its caller retries with a fresh base) or are disjoint.
// All bases lie below the kernel's ephemeral range (32768+ by default), where
// the client sockets' own local ports come from.
#ifndef TESTS_LOOPBACK_PORTS_H_
#define TESTS_LOOPBACK_PORTS_H_

#include <cstdint>
#include <random>

namespace opx::loopback {

// Servers use base+1 .. base+7.
inline uint16_t RandomPortBase() {
  static std::mt19937 rng(std::random_device{}());
  return static_cast<uint16_t>(20000 + 8 * (rng() % 1500));  // [20000, 32000)
}

// Bind attempts a test makes before giving up on finding free ports.
constexpr int kPortAttempts = 20;

}  // namespace opx::loopback

#endif  // TESTS_LOOPBACK_PORTS_H_
