// Core data model of the synthetic Internet.
//
// The paper's system runs against the real IPv4 Internet; we substitute a
// generated topology (DESIGN.md §1) with the structures Reverse Traceroute's
// logic actually interacts with: an AS-level graph with Gao-Rexford business
// relationships, per-AS router topologies, interface addressing (/30 links,
// loopbacks, gateway addresses), end hosts with realistic responsiveness, and
// vantage points capable of spoofed probing.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "net/ipv4.h"

namespace revtr::topology {

using Asn = std::uint32_t;          // 1-based AS number.
using AsIndex = std::uint32_t;      // Dense index into the AS table.
using RouterId = std::uint32_t;     // Dense index into the router table.
using LinkId = std::uint32_t;       // Dense index into the link table.
using PrefixId = std::uint32_t;     // Dense index into the BGP prefix table.
using HostId = std::uint32_t;       // Dense index into the host table.

inline constexpr std::uint32_t kInvalidId =
    std::numeric_limits<std::uint32_t>::max();

enum class AsTier : std::uint8_t { kTier1, kTransit, kStub };

// Flavor tags used by the asymmetry analysis (Fig 8b calls out NRENs) and by
// vantage-point placement (M-Lab sits in colocation facilities, Insight 1.7).
enum class AsCategory : std::uint8_t {
  kGeneric,
  kColo,      // Well-connected colocation/transit AS; hosts "2020" VPs.
  kEdu,       // Education stub; hosts "2016"-era VPs.
  kNren,      // Research network: peers widely, cold-potato flavored.
};

std::string to_string(AsTier tier);
std::string to_string(AsCategory category);

struct AsNode {
  Asn asn = 0;
  AsTier tier = AsTier::kStub;
  AsCategory category = AsCategory::kGeneric;

  std::vector<Asn> providers;
  std::vector<Asn> customers;
  std::vector<Asn> peers;

  std::vector<RouterId> routers;
  std::vector<PrefixId> customer_prefixes;  // Where hosts live.
  PrefixId infra_prefix = kInvalidId;       // Router interfaces/loopbacks.

  // Network-wide behaviours.
  bool allows_spoofed_egress = true;  // Source-address validation absent.
  bool filters_ip_options = false;    // Border drops RR/TS packets.
  // When set, this AS picks between equally-preferred BGP routes based on
  // the packet *source*, violating destination-based routing (Appx E). The
  // choice is consistent AS-wide per (src, dst), so forwarding stays
  // loop-free (alternate routes share preference class and path length).
  bool source_sensitive = false;

  std::size_t degree() const noexcept {
    return providers.size() + customers.size() + peers.size();
  }
};

// How a router fills the Record Route option when forwarding (§4.3: routers
// stamp "inbound, outbound, loopback, or even private IP addresses").
enum class RrStampPolicy : std::uint8_t {
  kEgress,    // RFC 791 default: outgoing interface address.
  kIngress,   // Incoming interface address.
  kLoopback,  // Router loopback (same addr both directions -> RR loops).
  kPrivate,   // RFC 1918 address, unmappable to an AS (§5.2.2).
  kNoStamp,   // Forwards the packet without stamping.
};

std::string to_string(RrStampPolicy policy);

struct Router {
  RouterId id = kInvalidId;
  Asn asn = 0;
  AsIndex as_index = kInvalidId;  // Dense index of `asn` (= index_of(asn)).
  net::Ipv4Addr loopback;
  net::Ipv4Addr private_alias;  // Stamped when policy == kPrivate.
  RrStampPolicy rr_policy = RrStampPolicy::kEgress;

  bool responds_ttl_exceeded = true;  // Appears in traceroutes.
  bool responds_ping = true;          // Answers direct probes to its addrs.
  bool responds_options = true;       // Answers probes carrying IP options.
  bool snmp_responder = false;        // Table 2 alias ground-truth channel.
  bool per_packet_lb = false;         // Randomizes ECMP for option packets.
  bool source_sensitive = false;      // Violates destination-based routing.

  std::vector<LinkId> links;
};

struct Link {
  LinkId id = kInvalidId;
  RouterId router_a = kInvalidId;
  RouterId router_b = kInvalidId;
  net::Ipv4Addr addr_a;  // Interface of router_a on this /30.
  net::Ipv4Addr addr_b;  // Interface of router_b.
  std::int64_t delay_us = 1000;
  bool interdomain = false;
};

struct BgpPrefix {
  PrefixId id = kInvalidId;
  net::Ipv4Prefix prefix;
  Asn origin = 0;
  bool infrastructure = false;
};

// How the destination itself treats the RR option in its echo reply
// (Appx C artifacts).
enum class HostStamp : std::uint8_t {
  kNormal,       // Stamps its own address once.
  kNoStamp,      // Replies but never stamps.
  kDoubleStamp,  // Stamps an alias address twice (alias of the destination).
  kAliasStamp,   // Stamps a different interface address once.
};

std::string to_string(HostStamp stamp);

struct Host {
  HostId id = kInvalidId;
  net::Ipv4Addr addr;
  Asn asn = 0;
  RouterId attachment = kInvalidId;  // Access router.
  // The access router's gateway interface in the host's subnet, fixed at
  // build: the host's packets arrive at the router there, and the router
  // forwards into the subnet from there.
  net::Ipv4Addr gateway;

  bool ping_responsive = true;
  bool rr_responsive = true;  // Replies to packets carrying IP options.
  HostStamp stamp = HostStamp::kNormal;
  net::Ipv4Addr alias;  // Secondary interface for kDoubleStamp/kAliasStamp.

  bool is_vantage_point = false;  // Can send/receive and spoof probes.
  bool is_probe_host = false;     // RIPE-Atlas-like traceroute origin.
};

// Which interface an address belongs to: a router plus (optionally) the link
// whose /30 carries it. kInvalidId link means loopback/gateway/private alias.
struct InterfaceOwner {
  RouterId router = kInvalidId;
  LinkId link = kInvalidId;
};

}  // namespace revtr::topology
