// SimNetwork: the live-Internet substitute. It binds together the static
// topology, BGP-style routing, per-link directional demand models and queue
// models, and ICMP response behaviour, and exposes exactly the operations a
// measurement host has: send a (TTL-limited) probe and observe what comes
// back. Congestion is directional — in the broadband scenarios the
// content->access direction saturates, so a TSLP probe crosses the quiet
// upstream direction and its ICMP *reply* rides the congested downstream
// queue, which is how the real method observes interdomain congestion.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "sim/demand.h"
#include "sim/fault_hook.h"
#include "sim/link_model.h"
#include "sim/routing.h"
#include "stats/rng.h"
#include "topo/topology.h"

namespace manic::sim {

using topo::Asn;
using topo::IfaceId;
using topo::Ipv4Addr;
using topo::LinkId;
using topo::RouterId;
using topo::VpId;

// Direction along a link: kAtoB means router_a -> router_b.
enum class Direction : std::uint8_t { kAtoB = 0, kBtoA = 1 };

constexpr Direction Opposite(Direction d) noexcept {
  return d == Direction::kAtoB ? Direction::kBtoA : Direction::kAtoB;
}

// Paris-traceroute-style flow identifier: TSLP keeps the ICMP checksum
// constant across near/far probes so ECMP hashes them onto the same path.
struct FlowId {
  std::uint16_t value = 0;
};

struct Hop {
  RouterId router = topo::kInvalidId;
  IfaceId ingress_iface = topo::kInvalidId;  // interface the packet arrived on
  LinkId via_link = topo::kInvalidId;        // link crossed to reach it
  Direction via_dir = Direction::kAtoB;
};

struct ForwardPath {
  std::vector<Hop> hops;  // hops[k] is where a probe with TTL k+1 expires
  // Final delivery to the destination host beyond the last hop: a real
  // uplink crossing when dst is a VP host, otherwise a fixed stub delay.
  double host_delay_ms = 0.5;
  Ipv4Addr dst;
  Asn dst_as = 0;
  LinkId host_link = topo::kInvalidId;
  Direction host_dir = Direction::kAtoB;
  bool reached = false;  // destination host reachable past the last hop
};

enum class ProbeOutcome : std::uint8_t { kTtlExpired, kEchoReply, kLost };

struct ProbeReply {
  ProbeOutcome outcome = ProbeOutcome::kLost;
  Ipv4Addr responder;
  double rtt_ms = 0.0;
  std::uint32_t ip_id = 0;  // responder's IP-ID counter value (for Ally)
  int hop_index = -1;       // index into the forward path (TTL-1)
};

// Aggregate path quality used by the throughput / streaming models.
struct PathMetrics {
  double rtt_ms = 0.0;         // base + queueing, both directions
  double loss_up = 0.0;        // VP -> destination direction
  double loss_down = 0.0;      // destination -> VP direction
  double min_capacity_gbps = 0.0;
  double worst_down_utilization = 0.0;
  LinkId worst_down_link = topo::kInvalidId;
  bool reachable = false;
};

class SimNetwork {
 public:
  SimNetwork(topo::Topology& topo, std::uint64_t seed);

  topo::Topology& topology() noexcept { return *topo_; }
  const topo::Topology& topology() const noexcept { return *topo_; }
  BgpRouting& routing() noexcept { return routing_; }

  // ---- dynamics configuration --------------------------------------------
  void SetDemand(LinkId link, Direction dir, LinkDemand demand);
  LinkDemand& DemandFor(LinkId link, Direction dir);
  void SetQueueModel(LinkId link, LinkQueueModel model);

  // Forces paths that *start* at `from_router` toward `dst_as` to exit via
  // `via_link` at their first AS transition: models an asymmetric return
  // path for ICMP replies / reverse data (§7, Table 2's Link 2).
  void SetReturnOverride(RouterId from_router, Asn dst_as, LinkId via_link);

  // Invalidate cached paths after topology or routing changes.
  void InvalidatePaths();

  // ---- fault injection -----------------------------------------------------
  // Installs the fault schedule every subsequent operation consults (not
  // owned; pass nullptr to clear). A null hook leaves every code path — and
  // every random draw — exactly as in an unfaulted run.
  void SetFaultHook(const FaultHook* hook) { fault_hook_ = hook; }
  const FaultHook* fault_hook() const noexcept { return fault_hook_; }

  // ---- path computation ----------------------------------------------------
  // Path from a router toward an address (cached; ECMP depends on flow).
  // `route_epoch` re-seeds ECMP tie-breaking (fault-driven route churn);
  // epoch 0 reproduces the historical selection exactly.
  const ForwardPath& PathFromRouter(RouterId start, Ipv4Addr dst, FlowId flow,
                                    std::uint32_t route_epoch = 0);
  // Path from a VP's host (starts at its first-hop router).
  const ForwardPath& PathFromVp(VpId vp, Ipv4Addr dst, FlowId flow,
                                std::uint32_t route_epoch = 0);

  // ---- probing -------------------------------------------------------------
  // Sends one TTL-limited ICMP probe from `vp` toward `dst` at sim time `t`.
  ProbeReply Probe(VpId vp, Ipv4Addr dst, int ttl, FlowId flow, TimeSec t);

  // Echo probe all the way to the destination host.
  ProbeReply Ping(VpId vp, Ipv4Addr dst, FlowId flow, TimeSec t);

  // TTL-limited probe with the IP Record Route option (§7's proposed
  // asymmetric-return detector): when the probe elicits a reply, up to
  // `kRecordRouteSlots` egress interface addresses of the routers the REPLY
  // traversed are recorded, letting a measurer check whether the return path
  // crossed the targeted link. Real RR is limited to 9 slots and often
  // ignored; routers with `responds == false` skip recording.
  static constexpr std::size_t kRecordRouteSlots = 9;
  struct RecordRouteReply {
    ProbeReply reply;
    std::vector<Ipv4Addr> reverse_route;  // egress ifaces, VP-ward order
  };
  RecordRouteReply ProbeRecordRoute(VpId vp, Ipv4Addr dst, int ttl,
                                    FlowId flow, TimeSec t);

  // Deterministic expectation of a TTL-limited probe at time t: mean RTT
  // (no jitter/slow-path) and end-to-end loss probability of probe plus
  // reply. Used by the high-rate loss module to aggregate a 5-minute
  // window (300 probes) as one Binomial draw instead of 300 walks; tests
  // verify it matches per-probe simulation.
  struct ProbeExpectation {
    double rtt_ms = 0.0;
    double loss_prob = 1.0;
    Ipv4Addr responder;
    bool reachable = false;
  };
  // include_queues=false yields the congestion-free baseline RTT (pure
  // propagation + ICMP costs), used by the fast series synthesizer.
  ProbeExpectation ExpectProbe(VpId vp, Ipv4Addr dst, int ttl, FlowId flow,
                               TimeSec t, bool include_queues = true);

  // Noisy queueing delay and probe-drop probability of one link direction
  // at time t: {0, 0} when no demand model is attached, {0, 1} while the
  // link is down.
  QueueObservation ObservedQueue(LinkId link, Direction dir, TimeSec t) const;

  // ---- day-granular queries -------------------------------------------------
  // A day of 5-minute slots at once: out[i] is the per-time query's answer
  // at StartOfDay(day) + i * kSlotSec, bit for bit. `table` is
  // ShapeTable(link, dir), built once before a loop over the link's days.
  // An installed fault hook is still asked about every slot.
  DiurnalTable ShapeTable(LinkId link, Direction dir) const;
  void ObservedQueueDay(LinkId link, Direction dir, std::int64_t day,
                        const DiurnalTable& table,
                        std::span<QueueObservation, kSlotsPerDay> out) const;
  void MeanUtilizationDay(LinkId link, Direction dir, std::int64_t day,
                          const DiurnalTable& table,
                          std::span<double, kSlotsPerDay> out) const;

  // ---- bulk-transfer view ---------------------------------------------------
  // Path quality between a VP and a destination at time t (for NDT/YouTube).
  PathMetrics MetricsFor(VpId vp, Ipv4Addr dst, FlowId flow, TimeSec t);

  // ---- ground truth ---------------------------------------------------------
  // Noise-free utilization of a link direction at time t (0 if no demand
  // model is attached).
  double MeanUtilization(LinkId link, Direction dir, TimeSec t) const;
  // Fraction of epoch-day `day` during which the mean utilization of the
  // given direction is >= threshold (sampled at 1-minute resolution).
  double TrueCongestedFraction(LinkId link, Direction dir, std::int64_t day,
                               double threshold = 1.0) const;
  // True where any minute of the day saturates.
  bool TrulyCongested(LinkId link, Direction dir, std::int64_t day) const {
    return TrueCongestedFraction(link, dir, day) > 0.0;
  }

  // Local UTC offset used by a link's demand evaluation (its near router's).
  int LinkUtcOffset(LinkId link) const;

  std::uint64_t ProbesSent() const noexcept { return probes_sent_; }

 private:
  struct LinkDynamics {
    std::optional<LinkDemand> demand[2];
    LinkQueueModel queue;
    int utc_offset_hours = 0;
  };

  struct SegmentCost {
    double delay_ms = 0.0;
    bool lost = false;
  };

  // Delay and loss of crossing `link` in `dir` at time t; stochastic.
  SegmentCost CrossLink(LinkId link, Direction dir, TimeSec t,
                        std::uint64_t noise_key);

  // Accumulated one-way cost over `path.hops[0..hop_count)`.
  SegmentCost AccumulatePath(const ForwardPath& path, std::size_t hop_count,
                             TimeSec t, std::uint64_t noise_key);

  ForwardPath ComputePath(RouterId start, Ipv4Addr dst, FlowId flow,
                          std::uint32_t route_epoch) const;
  LinkId ChooseEgressLink(RouterId cur, Asn cur_as, Asn next_as, Ipv4Addr dst,
                          FlowId flow, bool first_transition,
                          RouterId path_start, std::uint32_t route_epoch) const;

  // Routing epoch the installed fault schedule prescribes at time t.
  std::uint32_t RouteEpochAt(TimeSec t) const {
    return fault_hook_ != nullptr ? fault_hook_->RouteEpochAt(t) : 0;
  }
  // Demand-model utilization adjusted for fault state (brownouts inflate it;
  // a down link carries nothing).
  double FaultedUtilization(const LinkDemand& demand, const LinkDynamics& dyn,
                            LinkId link, TimeSec t, bool* up) const;
  // Utilization `u` of `link` at time t under the installed fault hook's
  // link state; `*up` (when non-null) reports whether the link is up.
  double ApplyLinkFault(LinkId link, TimeSec t, double u, bool* up) const;
  // The demand model of one link direction, or null when none is attached.
  const LinkDemand* DemandOf(LinkId link, Direction dir) const;

  topo::Topology* topo_ = nullptr;
  BgpRouting routing_;
  mutable stats::Rng rng_;
  std::vector<LinkDynamics> dynamics_;
  std::map<std::pair<RouterId, Asn>, LinkId> return_overrides_;
  // Keyed (router, dst, route_epoch << 16 | flow): churn epochs get their own
  // cached paths, and epoch 0 keys collapse to the historical layout.
  std::map<std::tuple<RouterId, std::uint32_t, std::uint32_t>, ForwardPath>
      path_cache_;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t seed_ = 0;
  const FaultHook* fault_hook_ = nullptr;
};

}  // namespace manic::sim
