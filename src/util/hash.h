// Hash mixing for incrementally-maintained set fingerprints.
//
// Sets that mutate one element at a time (a Database's fact ids) keep their
// hash as the 2^64 wrap-around *sum* of per-element hashes: addition is
// commutative (the fingerprint is insertion-order independent, matching set
// semantics) and invertible (removing an element subtracts its contribution),
// so every insert/erase is an O(1) hash update. Raw element hashes are passed
// through a bijective finalizer first so that structured inputs (small
// integers, aligned pointers) spread over all 64 bits before summing — plain
// sums of raw hashes would cancel catastrophically.

#ifndef OPCQA_UTIL_HASH_H_
#define OPCQA_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace opcqa {

/// Bijective 64-bit finalizer (splitmix64's output stage).
inline uint64_t HashMix64(uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// FNV-1a over `text`: independent of std::hash, identical across
/// processes and builds (failpoint site streams, per-query sampler seeds).
inline uint64_t FnvHash(std::string_view text) {
  uint64_t hash = 1469598103934665603ull;
  for (char c : text) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Order-dependent combine for composite element hashes (boost-style).
inline size_t HashCombine(size_t seed, size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace opcqa

#endif  // OPCQA_UTIL_HASH_H_
