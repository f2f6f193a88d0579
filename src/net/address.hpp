#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace hpop::net {

/// IPv4-style 32-bit address. The simulator uses IPv4 semantics because the
/// paper's NAT-traversal discussion (§III) is about the IPv4 world; §III's
/// IPv6 remark is modeled by topologies that simply omit NAT boxes.
struct IpAddr {
  std::uint32_t value = 0;

  constexpr IpAddr() = default;
  constexpr explicit IpAddr(std::uint32_t v) : value(v) {}
  constexpr IpAddr(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                   std::uint8_t d)
      : value((std::uint32_t(a) << 24) | (std::uint32_t(b) << 16) |
              (std::uint32_t(c) << 8) | std::uint32_t(d)) {}

  constexpr bool is_unspecified() const { return value == 0; }
  auto operator<=>(const IpAddr&) const = default;

  std::string to_string() const;
  static IpAddr parse(const std::string& dotted);  // throws on bad input
};

struct Endpoint {
  IpAddr ip;
  std::uint16_t port = 0;

  auto operator<=>(const Endpoint&) const = default;
  std::string to_string() const;
};

/// CIDR prefix for routing and address-pool allocation.
struct Prefix {
  IpAddr base;
  int bits = 0;

  /// The network bits: the top `bits` bits set.
  constexpr std::uint32_t mask() const {
    return bits == 0 ? 0 : ~std::uint32_t(0) << (32 - bits);
  }
  constexpr bool contains(IpAddr a) const {
    return (a.value & mask()) == (base.value & mask());
  }
  auto operator<=>(const Prefix&) const = default;
  std::string to_string() const;
};

}  // namespace hpop::net

namespace std {
template <>
struct hash<hpop::net::IpAddr> {
  size_t operator()(const hpop::net::IpAddr& a) const noexcept {
    return std::hash<std::uint32_t>()(a.value);
  }
};
template <>
struct hash<hpop::net::Endpoint> {
  size_t operator()(const hpop::net::Endpoint& e) const noexcept {
    return std::hash<std::uint64_t>()(
        (std::uint64_t(e.ip.value) << 16) | e.port);
  }
};
}  // namespace std
