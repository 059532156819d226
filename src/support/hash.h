// Hashing primitives whose outputs are persisted or seed schedules: program
// fingerprints, codegen artifact names, durable record checksums and the
// fault-injection draws all come from here. Changing any constant or byte
// order invalidates artifacts and records on disk and reshuffles every
// seeded fault schedule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>

namespace parad::hash {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
inline constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;

/// FNV-1a over a byte range, continuing from `h`.
inline std::uint64_t fnv1a(const void* data, std::size_t len,
                           std::uint64_t h = kFnvOffset) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t k = 0; k < len; ++k) {
    h ^= p[k];
    h *= kFnvPrime;
  }
  return h;
}

/// Incremental FNV-1a: integers as 8 little-endian bytes (signed values
/// sign-extended), doubles by bit pattern, strings length-prefixed.
struct Fnv {
  std::uint64_t h = kFnvOffset;

  void byte(unsigned char b) {
    h ^= b;
    h *= kFnvPrime;
  }
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (i * 8)));
  }
  void mix(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(int v) { mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void mix(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }
  void mix(const std::string& s) {
    mix(static_cast<std::uint64_t>(s.size()));
    for (char c : s) byte(static_cast<unsigned char>(c));
  }
};

/// SplitMix64 finalizer.
inline constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// A uniform draw in [0, 1) that is a pure function of (seed, salt, coords):
/// each salt is an independent stream, and coordinates fold in alternately
/// offset by two odd constants.
inline double unit(std::uint64_t seed, std::uint64_t salt,
                   std::initializer_list<std::uint64_t> coords) {
  std::uint64_t h = seed + kGolden * (salt + 1);
  bool odd = false;
  for (std::uint64_t c : coords) {
    h = mix64(h ^ mix64(c + (odd ? 0x2545f4914f6cdd1dull : kGolden)));
    odd = !odd;
  }
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace parad::hash
