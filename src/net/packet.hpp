#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/address.hpp"

namespace hpop::net {

/// Base class for application payloads carried through the simulated
/// network. Implementations declare their serialized size; actual bytes are
/// materialized only where the mechanism under study needs them (e.g. file
/// contents in the attic), which keeps multi-gigabyte bulk-transfer
/// experiments cheap.
class Payload {
 public:
  virtual ~Payload() = default;
  virtual std::size_t wire_size() const = 0;
};

using PayloadPtr = std::shared_ptr<const Payload>;

/// Copy-on-write vector for packet bodies. Copying a packet — per link hop,
/// NAT rewrite, or tunnel encapsulation — shares the underlying storage;
/// the rare writer (the endpoint building the packet) clones only when the
/// body is actually shared. Reads never allocate: an empty CowVec holds no
/// storage at all.
template <typename T>
class CowVec {
 public:
  CowVec() = default;

  const std::vector<T>& view() const {
    static const std::vector<T> kEmpty;
    return v_ ? *v_ : kEmpty;
  }
  auto begin() const { return view().begin(); }
  auto end() const { return view().end(); }
  bool empty() const { return !v_ || v_->empty(); }
  std::size_t size() const { return v_ ? v_->size() : 0; }
  const T& operator[](std::size_t i) const { return (*v_)[i]; }

  /// Unique, writable body: clones first when shared (the copy-on-write).
  std::vector<T>& mutate() {
    if (!v_) {
      v_ = std::make_shared<std::vector<T>>();
    } else if (v_.use_count() > 1) {
      v_ = std::make_shared<std::vector<T>>(*v_);
    }
    return *v_;
  }
  /// Takes ownership of a fully-built body; empty input releases storage.
  void assign(std::vector<T>&& values) {
    v_ = values.empty()
             ? nullptr
             : std::make_shared<std::vector<T>>(std::move(values));
  }
  void push_back(T value) { mutate().push_back(std::move(value)); }

  /// Empties the body while keeping uniquely-owned storage for reuse — the
  /// packet-pool recycle path. Shared storage is released instead (some
  /// in-flight copy still reads it), so readers are never disturbed.
  void clear_keep_capacity() {
    if (!v_) return;
    if (v_.use_count() == 1) {
      v_->clear();
    } else {
      v_.reset();
    }
  }

 private:
  std::shared_ptr<std::vector<T>> v_;
};

/// An application message that finishes at byte `end_offset` of a TCP byte
/// stream (or of an MPTCP data-sequence stream). Receivers deliver the
/// message object once the stream is contiguous through that offset —
/// exactly how message framing over TCP behaves, without materializing the
/// intermediate bytes.
struct MessageRef {
  std::uint64_t end_offset = 0;
  PayloadPtr message;  // may be null for synthetic filler bytes
};

/// MPTCP DSS-style mapping: these subflow bytes carry data-sequence bytes
/// [data_offset, data_offset + length).
struct DssMapping {
  std::uint64_t data_offset = 0;
  std::uint64_t subflow_offset = 0;
  std::uint64_t length = 0;
};

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint64_t seq = 0;  // first payload byte (stream offset)
  std::uint64_t ack = 0;  // next expected stream offset
  bool syn = false;
  bool ack_flag = false;
  bool fin = false;
  bool rst = false;
  std::uint64_t wnd = 0;  // advertised receive window, bytes

  // --- MPTCP options (present only on MPTCP-enabled connections) ---
  /// Session token on the initial (mp_capable) SYN of an MPTCP connection.
  std::optional<std::uint64_t> mp_capable;
  /// Session token on an additional-subflow (mp_join) SYN.
  std::optional<std::uint64_t> mp_join;
  std::optional<DssMapping> dss;
  std::optional<std::uint64_t> data_ack;

  /// SACK blocks: received out-of-order ranges [first, second). Real TCP
  /// fits at most 3-4 blocks in the options; generators enforce
  /// kMaxSackBlocks, reporting the lowest-offset ranges — the holes just
  /// above the cumulative-ack frontier, which drive recovery.
  CowVec<std::pair<std::uint64_t, std::uint64_t>> sack;

  static constexpr std::size_t kMaxSackBlocks = 4;
};

struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
};

enum class Proto : std::uint8_t { kTcp, kUdp };

/// A simulated IP packet. Value type: NAT boxes and tunnels copy-and-rewrite
/// the addressing fields, but the body (messages, SACK blocks, encapsulated
/// inner packet) is copy-on-write shared — a hop never deep-copies it.
struct Packet {
  IpAddr src;
  IpAddr dst;
  Proto proto = Proto::kTcp;
  TcpHeader tcp;
  UdpHeader udp;

  /// Transport payload length in bytes (excluding headers).
  std::size_t payload_len = 0;

  /// Application messages ending within this segment/datagram.
  CowVec<MessageRef> messages;

  /// VPN encapsulation: when set, this packet is an outer UDP datagram
  /// whose payload is the inner packet; `payload_len` is ignored and
  /// computed from the inner packet plus `encap_overhead`.
  std::shared_ptr<const Packet> encapsulated;

  int ttl = 64;

  std::uint16_t src_port() const {
    return proto == Proto::kTcp ? tcp.src_port : udp.src_port;
  }
  std::uint16_t dst_port() const {
    return proto == Proto::kTcp ? tcp.dst_port : udp.dst_port;
  }
  void set_src_port(std::uint16_t p) {
    (proto == Proto::kTcp ? tcp.src_port : udp.src_port) = p;
  }
  void set_dst_port(std::uint16_t p) {
    (proto == Proto::kTcp ? tcp.dst_port : udp.dst_port) = p;
  }
  Endpoint src_endpoint() const { return {src, src_port()}; }
  Endpoint dst_endpoint() const { return {dst, dst_port()}; }

  /// Total bytes this packet occupies on the wire. Iterative over the
  /// encapsulation chain (no recursion to overflow), and bounded at
  /// kMaxEncapDepth layers: anything nested deeper — far beyond any real
  /// tunnel-in-tunnel — is counted as bare headers, a guard against
  /// runaway chains rather than a modeling statement.
  std::size_t wire_size() const {
    constexpr std::size_t kIpHeader = 20;
    constexpr std::size_t kTcpHeader = 20;
    constexpr std::size_t kUdpHeader = 8;
    std::size_t total = 0;
    const Packet* p = this;
    // §IV-C: "VPN adds 36 bytes of per-packet overhead for IP
    // encapsulation and UDP and OpenVPN headers". The inner packet's own
    // size already includes its headers; each outer layer adds exactly 36.
    for (int depth = 0; p->encapsulated && depth < kMaxEncapDepth; ++depth) {
      total += kVpnOverhead;
      p = p->encapsulated.get();
    }
    const std::size_t transport =
        p->proto == Proto::kTcp ? kTcpHeader : kUdpHeader;
    return total + kIpHeader + transport + p->payload_len;
  }

  static constexpr std::size_t kVpnOverhead = 36;
  static constexpr int kMaxEncapDepth = 64;
};

}  // namespace hpop::net
