// Deterministic pseudo-random number generation for the simulator.
//
// We use xoshiro256** (Blackman & Vigna) seeded through splitmix64, the
// recommended pairing: it is fast, has a 2^256-1 period, and passes BigCrush.
// Every simulator subsystem owns an independent stream derived from a single
// user seed, so runs are bit-reproducible and subsystems are decorrelated.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "util/contracts.hpp"

namespace mcs::util {

/// splitmix64: used to expand a 64-bit seed into xoshiro state, and as the
/// stream-derivation function (seed, stream-id) -> child seed.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Chain `coords` through splitmix64 starting from `base`: every
/// coordinate permutes the state, so derived seeds that differ in any
/// single coordinate (replication index, grid coordinate, ...) are fully
/// decorrelated — unlike `base + i`, where nearby bases share streams
/// (seed S coordinate r equals seed S+1 coordinate r-1). Used by the
/// sweep runner's per-task seeds and run_replications_sequential's
/// per-replication seeds.
[[nodiscard]] std::uint64_t derive_seed(
    std::uint64_t base, std::initializer_list<std::uint64_t> coords);

/// xoshiro256** PRNG with convenience draws used across the simulator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm.next();
    // All-zero state is invalid for xoshiro; splitmix64 cannot produce four
    // zero outputs in a row, but guard the invariant anyway.
    MCS_ENSURES(state_[0] != 0 || state_[1] != 0 || state_[2] != 0 ||
                state_[3] != 0);
  }

  /// Derive an independent child stream. Mixing the stream id through
  /// splitmix64 decorrelates children even for adjacent ids.
  [[nodiscard]] Rng fork(std::uint64_t stream_id) const {
    SplitMix64 sm(state_[0] ^ (0xa0761d6478bd642fULL * (stream_id + 1)));
    return Rng(sm.next() ^ state_[3]);
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (usable with <random> adaptors).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

  /// Uniform double in [0, 1): 53 high bits scaled.
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1]: never returns 0, safe for log().
  double next_double_open_low() { return 1.0 - next_double(); }

  /// Uniform integer in [0, bound) via Lemire's multiply-shift rejection.
  std::uint64_t next_below(std::uint64_t bound) {
    MCS_EXPECTS(bound > 0);
    __extension__ using u128 = unsigned __int128;
    std::uint64_t x = next_u64();
    u128 m = static_cast<u128>(x) * static_cast<u128>(bound);
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0ULL - bound) % bound;
      while (low < threshold) {
        x = next_u64();
        m = static_cast<u128>(x) * static_cast<u128>(bound);
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Exponential inter-arrival time with the given rate (mean 1/rate).
  double exponential(double rate) {
    MCS_EXPECTS(rate > 0.0);
    return -std::log(next_double_open_low()) / rate;
  }

  /// Bernoulli draw.
  bool bernoulli(double p) { return next_double() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Walker alias table: O(1) sampling from a fixed discrete distribution.
/// Used for destination selection under non-uniform traffic patterns.
class AliasTable {
 public:
  /// Build from (unnormalized, non-negative) weights; at least one > 0.
  explicit AliasTable(const std::vector<double>& weights);

  [[nodiscard]] std::size_t size() const { return prob_.size(); }

  std::size_t sample(Rng& rng) const {
    const std::size_t i =
        static_cast<std::size_t>(rng.next_below(prob_.size()));
    return rng.next_double() < prob_[i] ? i : alias_[i];
  }

 private:
  std::vector<double> prob_;
  std::vector<std::size_t> alias_;
};

}  // namespace mcs::util
