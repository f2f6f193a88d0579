#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/types.hpp"

namespace hpop::util {

/// A 256-bit digest.
using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 (FIPS 180-4). Self-contained; validated against the
/// NIST test vectors in the unit tests. Used for NoCDN object integrity,
/// capability tokens, and erasure-shard checksums.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(const std::uint8_t* data, std::size_t len);
  void update(const Bytes& data) { update(data.data(), data.size()); }
  void update(std::string_view s) {
    update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  /// Finalizes and returns the digest. The object must be reset() before
  /// further use.
  Digest finish();

  /// One-shot helpers.
  static Digest digest(const Bytes& data);
  static Digest digest(std::string_view data);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// HMAC-SHA256 (RFC 2104). Used to sign NoCDN usage records and HPoP
/// capability tokens.
Digest hmac_sha256(const Bytes& key, const Bytes& message);
Digest hmac_sha256(const Bytes& key, std::string_view message);

/// Constant-time digest comparison (the simulation does not have timing
/// side channels, but the API models the correct idiom).
bool digest_equal(const Digest& a, const Digest& b);

std::string digest_hex(const Digest& d);

/// FNV-1a, 64-bit: the one non-cryptographic hash behind the repo's state
/// fingerprints, WAL record checksums and directory ring keys. Not for
/// anything an adversary chooses.
struct Fnv1a {
  static constexpr std::uint64_t kPrime = 1099511628211ull;
  static constexpr std::uint64_t kBasis = 14695981039346656037ull;
  /// kBasis with its last decimal digit dropped (0x14650fb0739d0383). The
  /// WAL and attic checksums, the directory, health-provider and NoCDN
  /// fingerprints, the metro topology and workload fingerprints and the
  /// directory ring keys start from it. Changing it would move every
  /// household's HashRing::replicas placement, and with it the directory
  /// behaviour of the NoCDN metro day.
  static constexpr std::uint64_t kLegacyBasis = 1469598103934665603ull;

  std::uint64_t h = kBasis;

  Fnv1a& byte(std::uint8_t b) {
    h = (h ^ b) * kPrime;
    return *this;
  }
  Fnv1a& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) byte(p[i]);
    return *this;
  }
  /// v's eight bytes, least significant first.
  Fnv1a& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  /// s's length as a u64, then its bytes.
  Fnv1a& str(std::string_view s) {
    u64(s.size());
    return bytes(s.data(), s.size());
  }
  /// The IEEE-754 bits of d, as a u64.
  Fnv1a& f64(double d) { return u64(std::bit_cast<std::uint64_t>(d)); }
};

}  // namespace hpop::util
