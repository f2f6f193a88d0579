#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/result.hpp"
#include "util/types.hpp"

namespace hpop::util {

/// GF(2^8) arithmetic with the 0x11d reducing polynomial (the field used by
/// most storage erasure codes). Tables are built once at static init.
namespace gf256 {
std::uint8_t add(std::uint8_t a, std::uint8_t b);  // == sub
std::uint8_t mul(std::uint8_t a, std::uint8_t b);
std::uint8_t div(std::uint8_t a, std::uint8_t b);
std::uint8_t inv(std::uint8_t a);
}  // namespace gf256

/// Systematic Cauchy Reed–Solomon erasure code.
///
/// Splits data into `k` equal shards and produces `m` parity shards; any `k`
/// of the `k+m` shards reconstruct the original data. The composite matrix is
/// [I; C] with C a Cauchy matrix, for which every k×k row submatrix is
/// invertible — the property the decoder relies on.
///
/// The data attic (§IV-A "Data Availability") uses this to redundantly encode
/// backups across peer HPoPs.
class ReedSolomon {
 public:
  /// Requires 1 <= k, 1 <= m, and k + m <= 255.
  ReedSolomon(int k, int m);

  /// Encodes `data` into k+m shards. Shards embed no metadata; the caller
  /// records the original size (needed to strip padding on decode).
  std::vector<Bytes> encode(const Bytes& data) const;

  /// Reconstructs the original data from any >= k shards. `shards[i]` must
  /// hold shard i or be std::nullopt if that shard is lost.
  Result<Bytes> decode(const std::vector<std::optional<Bytes>>& shards,
                       std::size_t original_size) const;

 private:
  /// Row `r` of the (k+m) x k composite generator matrix.
  std::vector<std::uint8_t> matrix_row(int r) const;

  int k_;
  int m_;
};

/// Probability that data encoded (k, m) is reconstructable when each of the
/// k+m shard-holding peers is independently available with probability `p`.
/// Used by the availability analysis in bench_attic_availability (E5).
double erasure_availability(int k, int m, double p);

}  // namespace hpop::util
