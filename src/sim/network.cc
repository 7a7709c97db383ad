#include "sim/network.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

namespace manic::sim {

using stats::kSecPerMin;
using stats::StartOfDay;

namespace {

// Host stack + NIC latency at the probing host and at destination hosts.
constexpr double kHostStackMs = 0.15;
constexpr double kDestHostMs = 0.5;

}  // namespace

SimNetwork::SimNetwork(topo::Topology& topo, std::uint64_t seed)
    : topo_(&topo), routing_(topo), rng_(seed), seed_(seed) {}

void SimNetwork::SetDemand(LinkId link, Direction dir, LinkDemand demand) {
  if (dynamics_.size() <= link) dynamics_.resize(topo_->LinkCount());
  LinkDynamics& dyn = dynamics_[link];
  const topo::Link& l = topo_->link(link);
  dyn.utc_offset_hours = topo_->router(l.router_a).utc_offset_hours;
  if (demand.noise_seed == 0) {
    demand.noise_seed = stats::Rng::HashMix(seed_, link, static_cast<int>(dir));
  }
  dyn.demand[static_cast<int>(dir)] = std::move(demand);
}

LinkDemand& SimNetwork::DemandFor(LinkId link, Direction dir) {
  if (dynamics_.size() <= link || !dynamics_[link].demand[static_cast<int>(dir)]) {
    SetDemand(link, dir, LinkDemand{});
  }
  return *dynamics_[link].demand[static_cast<int>(dir)];
}

void SimNetwork::SetQueueModel(LinkId link, LinkQueueModel model) {
  if (dynamics_.size() <= link) dynamics_.resize(topo_->LinkCount());
  dynamics_[link].queue = model;
}

void SimNetwork::SetReturnOverride(RouterId from_router, Asn dst_as,
                                   LinkId via_link) {
  return_overrides_[{from_router, dst_as}] = via_link;
}

void SimNetwork::InvalidatePaths() {
  path_cache_.clear();
  routing_.Invalidate();
}

const LinkDemand* SimNetwork::DemandOf(LinkId link, Direction dir) const {
  if (dynamics_.size() <= link) return nullptr;
  const auto& demand = dynamics_[link].demand[static_cast<int>(dir)];
  return demand ? &*demand : nullptr;
}

double SimNetwork::ApplyLinkFault(LinkId link, TimeSec t, double u,
                                  bool* up) const {
  if (up != nullptr) *up = true;
  if (fault_hook_ != nullptr) {
    const FaultHook::LinkState fs = fault_hook_->LinkAt(link, t);
    if (!fs.up) {
      if (up != nullptr) *up = false;
      return 0.0;  // nothing crosses a dead link
    }
    if (fs.capacity_scale_frac > 0.0 && fs.capacity_scale_frac < 1.0) {
      u /= fs.capacity_scale_frac;  // same demand over less capacity
    }
  }
  return u;
}

double SimNetwork::FaultedUtilization(const LinkDemand& demand,
                                      const LinkDynamics& dyn, LinkId link,
                                      TimeSec t, bool* up) const {
  return ApplyLinkFault(link, t, demand.Utilization(t, dyn.utc_offset_hours),
                        up);
}

double SimNetwork::MeanUtilization(LinkId link, Direction dir,
                                   TimeSec t) const {
  const LinkDemand* demand = DemandOf(link, dir);
  if (demand == nullptr) return 0.0;
  return ApplyLinkFault(
      link, t, demand->MeanUtilization(t, dynamics_[link].utc_offset_hours),
      nullptr);
}

DiurnalTable SimNetwork::ShapeTable(LinkId link, Direction dir) const {
  const LinkDemand* demand = DemandOf(link, dir);
  return DiurnalTable(demand != nullptr ? demand->shape : DiurnalShape{});
}

void SimNetwork::ObservedQueueDay(LinkId link, Direction dir, std::int64_t day,
                                  const DiurnalTable& table,
                                  std::span<QueueObservation, kSlotsPerDay> out)
    const {
  const LinkDemand* demand = DemandOf(link, dir);
  if (demand == nullptr) {
    std::fill(out.begin(), out.end(), QueueObservation{});
    return;
  }
  const LinkDynamics& dyn = dynamics_[link];
  std::array<double, kSlotsPerDay> u{};
  demand->DayUtilization(day, dyn.utc_offset_hours, table, u);
  const TimeSec day_start = StartOfDay(day);
  for (std::size_t i = 0; i < out.size(); ++i) {
    bool up = true;
    const double ui = ApplyLinkFault(
        link, day_start + static_cast<TimeSec>(i) * kSlotSec, u[i], &up);
    // Nothing queues on a dead link, and it loses every packet.
    out[i] = up ? dyn.queue.Observe(ui)
                : QueueObservation{.delay_ms = 0.0, .loss_prob = 1.0};
  }
}

void SimNetwork::MeanUtilizationDay(LinkId link, Direction dir,
                                    std::int64_t day, const DiurnalTable& table,
                                    std::span<double, kSlotsPerDay> out) const {
  const LinkDemand* demand = DemandOf(link, dir);
  if (demand == nullptr) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  demand->MeanDayUtilization(day, dynamics_[link].utc_offset_hours, table,
                             out);
  if (fault_hook_ == nullptr) return;
  const TimeSec day_start = StartOfDay(day);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = ApplyLinkFault(
        link, day_start + static_cast<TimeSec>(i) * kSlotSec, out[i], nullptr);
  }
}

double SimNetwork::TrueCongestedFraction(LinkId link, Direction dir,
                                         std::int64_t day,
                                         double threshold) const {
  if (DemandOf(link, dir) == nullptr) return 0.0;
  const TimeSec start = StartOfDay(day);
  int congested_minutes = 0;
  for (int m = 0; m < 1440; ++m) {
    // MeanUtilization folds in fault state (brownouts, outages).
    const double u = MeanUtilization(link, dir, start + m * kSecPerMin);
    if (u >= threshold) ++congested_minutes;
  }
  return congested_minutes / 1440.0;
}

int SimNetwork::LinkUtcOffset(LinkId link) const {
  if (dynamics_.size() > link) return dynamics_[link].utc_offset_hours;
  return topo_->router(topo_->link(link).router_a).utc_offset_hours;
}

LinkId SimNetwork::ChooseEgressLink(RouterId cur, Asn cur_as, Asn next_as,
                                    Ipv4Addr dst, FlowId flow,
                                    bool first_transition, RouterId path_start,
                                    std::uint32_t route_epoch) const {
  if (first_transition) {
    const auto ov = return_overrides_.find(
        {path_start, topo_->Prefix2As().Lookup(dst).value_or(0)});
    if (ov != return_overrides_.end()) {
      const topo::Link& l = topo_->link(ov->second);
      if ((l.as_a == cur_as && l.as_b == next_as) ||
          (l.as_b == cur_as && l.as_a == next_as)) {
        return ov->second;
      }
    }
  }
  const std::vector<LinkId> candidates =
      topo_->InterdomainLinksBetween(cur_as, next_as);
  if (candidates.empty()) return topo::kInvalidId;
  // Hot potato: nearest egress in intra-AS hops.
  int best = std::numeric_limits<int>::max();
  std::vector<LinkId> tied;
  for (const LinkId lid : candidates) {
    const topo::Link& l = topo_->link(lid);
    const RouterId near = l.as_a == cur_as ? l.router_a : l.router_b;
    const int d = routing_.IntraDistance(cur, near);
    if (d < best) {
      best = d;
      tied.clear();
    }
    if (d == best) tied.push_back(lid);
  }
  if (tied.empty()) return topo::kInvalidId;
  std::sort(tied.begin(), tied.end());
  // Per-flow ECMP among equal-cost egresses: hash of (flow, dst, AS pair).
  // A nonzero route-churn epoch re-salts the hash (paths may move); epoch 0
  // reproduces the historical selection bit-for-bit.
  std::uint64_t h = stats::Rng::HashMix(
      flow.value, dst.value(), (std::uint64_t{cur_as} << 32) | next_as);
  if (route_epoch != 0) h = stats::Rng::HashMix(h, route_epoch, 0xEC);
  return tied[h % tied.size()];
}

namespace {

// Link connecting two routers directly (intra-AS), if any.
topo::LinkId FindIntraLink(const topo::Topology& topo, RouterId a, RouterId b) {
  for (const topo::LinkId lid : topo.LinksOf(a, topo::LinkKind::kIntra)) {
    if (topo.PeerRouter(topo.link(lid), a) == b) return lid;
  }
  return topo::kInvalidId;
}

}  // namespace

ForwardPath SimNetwork::ComputePath(RouterId start, Ipv4Addr dst, FlowId flow,
                                    std::uint32_t route_epoch) const {
  ForwardPath path;
  path.dst = dst;
  const auto origin = topo_->Prefix2As().Lookup(dst);
  if (!origin) return path;
  path.dst_as = *origin;

  const Asn start_as = topo_->router(start).owner;
  const std::vector<Asn> as_path = routing_.AsPath(start_as, *origin);
  if (as_path.empty()) return path;

  RouterId cur = start;
  auto append_intra = [&](RouterId to) -> bool {
    const auto intra = routing_.IntraPath(cur, to);
    if (!intra) return false;
    for (std::size_t i = 1; i < intra->size(); ++i) {
      const LinkId lid = FindIntraLink(*topo_, (*intra)[i - 1], (*intra)[i]);
      const topo::Link& l = topo_->link(lid);
      const Direction dir =
          l.router_a == (*intra)[i - 1] ? Direction::kAtoB : Direction::kBtoA;
      path.hops.push_back({(*intra)[i], topo_->IfaceOn(l, (*intra)[i]), lid, dir});
    }
    cur = to;
    return true;
  };

  for (std::size_t i = 0; i + 1 < as_path.size(); ++i) {
    const Asn cur_as = as_path[i];
    const Asn next_as = as_path[i + 1];
    const LinkId lid = ChooseEgressLink(cur, cur_as, next_as, dst, flow,
                                        i == 0, start, route_epoch);
    if (lid == topo::kInvalidId) return path;
    const topo::Link& l = topo_->link(lid);
    const RouterId near = l.as_a == cur_as ? l.router_a : l.router_b;
    const RouterId far = topo_->PeerRouter(l, near);
    if (!append_intra(near)) return path;
    const Direction dir =
        l.router_a == near ? Direction::kAtoB : Direction::kBtoA;
    path.hops.push_back({far, topo_->IfaceOn(l, far), lid, dir});
    cur = far;
  }

  // Destination attachment inside the origin AS.
  RouterId dest_router = topo::kInvalidId;
  LinkId host_link = topo::kInvalidId;
  Direction host_dir = Direction::kAtoB;
  const auto dest_iface = topo_->IfaceByAddr(dst);
  bool is_vp_host = false;
  for (const topo::VantagePoint& vp : topo_->vps()) {
    if (vp.addr == dst) {
      dest_router = vp.first_hop;
      host_link = vp.uplink;
      // Uplink iface_a is on the first-hop router; host side is b.
      host_dir = Direction::kAtoB;
      is_vp_host = true;
      break;
    }
  }
  if (!is_vp_host) {
    if (dest_iface) {
      // Destination is a router interface itself; attach at that router.
      // When the interface borrows address space from the AS across the
      // link (interdomain /31s are numbered from one side), the covering
      // prefix routes the packet to the *near* router, which delivers over
      // the connected point-to-point link: route to the link's other end
      // first, then cross.
      dest_router = topo_->iface(*dest_iface).router;
      if (topo_->router(dest_router).owner != *origin &&
          topo_->iface(*dest_iface).link != topo::kInvalidId) {
        const topo::Link& plink = topo_->link(topo_->iface(*dest_iface).link);
        const RouterId near_side = topo_->PeerRouter(plink, dest_router);
        if (near_side != topo::kInvalidId &&
            topo_->router(near_side).owner == *origin) {
          if (!append_intra(near_side)) return path;
          const Direction dir = plink.router_a == near_side
                                    ? Direction::kAtoB
                                    : Direction::kBtoA;
          path.hops.push_back({dest_router, *dest_iface, plink.id, dir});
          path.host_delay_ms = 0.0;  // responding interface IS the target
          path.reached = true;
          return path;
        }
      }
    } else {
      const topo::AsInfo* info = topo_->FindAs(*origin);
      if (info == nullptr || info->routers.empty()) return path;
      dest_router = info->routers[stats::Rng::HashMix(dst.value(), 0xD357) %
                                  info->routers.size()];
    }
  }
  if (!append_intra(dest_router)) return path;
  path.host_link = host_link;
  path.host_dir = host_dir;
  path.host_delay_ms = is_vp_host ? kHostStackMs : kDestHostMs;
  path.reached = true;
  return path;
}

const ForwardPath& SimNetwork::PathFromRouter(RouterId start, Ipv4Addr dst,
                                              FlowId flow,
                                              std::uint32_t route_epoch) {
  const auto key = std::make_tuple(
      start, dst.value(),
      (route_epoch << 16) | std::uint32_t{flow.value});
  auto it = path_cache_.find(key);
  if (it == path_cache_.end()) {
    it = path_cache_.emplace(key, ComputePath(start, dst, flow, route_epoch))
             .first;
  }
  return it->second;
}

const ForwardPath& SimNetwork::PathFromVp(VpId vp, Ipv4Addr dst, FlowId flow,
                                          std::uint32_t route_epoch) {
  const topo::VantagePoint& v = topo_->vp(vp);
  // VP paths are cached under the first-hop router with a bit marking the
  // uplink prepend; encode by offsetting the flow — instead, keep a separate
  // cache keyed by (router | 0x80000000).
  const auto key = std::make_tuple(
      v.first_hop | 0x80000000u, dst.value(),
      (route_epoch << 16) | std::uint32_t{flow.value});
  auto it = path_cache_.find(key);
  if (it == path_cache_.end()) {
    ForwardPath path = ComputePath(v.first_hop, dst, flow, route_epoch);
    // Prepend the first-hop router as hop 0 (TTL=1 expires there), reached
    // via the host uplink.
    const topo::Link& up = topo_->link(v.uplink);
    Hop first;
    first.router = v.first_hop;
    first.ingress_iface = up.iface_a;
    first.via_link = v.uplink;
    first.via_dir = Direction::kBtoA;  // host side (b) -> router (a)
    path.hops.insert(path.hops.begin(), first);
    it = path_cache_.emplace(key, std::move(path)).first;
  }
  return it->second;
}

SimNetwork::SegmentCost SimNetwork::CrossLink(LinkId link, Direction dir,
                                              TimeSec t,
                                              std::uint64_t noise_key) {
  SegmentCost cost;
  const topo::Link& l = topo_->link(link);
  cost.delay_ms = l.propagation_ms();
  if (fault_hook_ != nullptr && !fault_hook_->LinkAt(link, t).up) {
    cost.lost = true;  // a down link loses every packet
    return cost;
  }
  if (dynamics_.size() > link) {
    const LinkDynamics& dyn = dynamics_[link];
    const auto& demand = dyn.demand[static_cast<int>(dir)];
    if (demand) {
      const double u = FaultedUtilization(*demand, dyn, link, t, nullptr);
      const QueueObservation obs = dyn.queue.Observe(u);
      cost.delay_ms += obs.delay_ms;
      if (obs.loss_prob > 0.0 &&
          stats::Rng::HashToUnit(noise_key, link, t) < obs.loss_prob) {
        cost.lost = true;
      }
    }
  }
  return cost;
}

SimNetwork::SegmentCost SimNetwork::AccumulatePath(const ForwardPath& path,
                                                   std::size_t hop_count,
                                                   TimeSec t,
                                                   std::uint64_t noise_key) {
  SegmentCost total;
  for (std::size_t i = 0; i < hop_count && i < path.hops.size(); ++i) {
    const Hop& hop = path.hops[i];
    if (hop.via_link == topo::kInvalidId) continue;
    const SegmentCost c =
        CrossLink(hop.via_link, hop.via_dir, t,
                  stats::Rng::HashMix(noise_key, i, 0xACC));
    total.delay_ms += c.delay_ms;
    total.lost = total.lost || c.lost;
  }
  return total;
}

ProbeReply SimNetwork::Probe(VpId vp, Ipv4Addr dst, int ttl, FlowId flow,
                             TimeSec t) {
  ProbeReply reply;
  // A VP that is out never puts a packet on the wire.
  if (fault_hook_ != nullptr && !fault_hook_->VpUpAt(vp, t)) return reply;
  ++probes_sent_;
  const std::uint32_t epoch = RouteEpochAt(t);
  const ForwardPath& path = PathFromVp(vp, dst, flow, epoch);
  if (path.hops.empty()) return reply;

  const std::uint64_t pkey = stats::Rng::HashMix(seed_, probes_sent_, t);

  const bool expires = ttl <= static_cast<int>(path.hops.size());
  if (expires) {
    const std::size_t idx = static_cast<std::size_t>(ttl) - 1;
    const SegmentCost fwd = AccumulatePath(path, idx + 1, t, pkey);
    if (fwd.lost) return reply;
    const topo::Router& responder = topo_->router(path.hops[idx].router);
    if (!responder.icmp.responds) return reply;
    if (fault_hook_ != nullptr) {
      const FaultHook::IcmpState ic =
          fault_hook_->IcmpAt(path.hops[idx].router, t);
      if (ic.blackholed) return reply;
      if (ic.extra_loss_frac > 0.0 && rng_.Bernoulli(ic.extra_loss_frac)) {
        return reply;
      }
    }
    if (rng_.Bernoulli(responder.icmp.response_loss_prob)) return reply;
    double icmp_ms = 0.0;
    if (rng_.Bernoulli(responder.icmp.slow_path_prob)) {
      icmp_ms = responder.icmp.slow_path_extra_ms * (0.5 + rng_.NextDouble());
    }
    // Reverse path of the ICMP time-exceeded message.
    const topo::VantagePoint& v = topo_->vp(vp);
    const ForwardPath& rev =
        PathFromRouter(path.hops[idx].router, v.addr, flow, epoch);
    if (!rev.reached) return reply;
    const SegmentCost back =
        AccumulatePath(rev, rev.hops.size(), t, stats::Rng::HashMix(pkey, 1));
    if (back.lost) return reply;
    double back_host_ms = rev.host_delay_ms;
    if (rev.host_link != topo::kInvalidId) {
      const SegmentCost hostc = CrossLink(rev.host_link, rev.host_dir, t,
                                          stats::Rng::HashMix(pkey, 2));
      if (hostc.lost) return reply;
      back_host_ms += hostc.delay_ms;
    }
    reply.outcome = ProbeOutcome::kTtlExpired;
    reply.responder = topo_->iface(path.hops[idx].ingress_iface).addr;
    reply.hop_index = static_cast<int>(idx);
    reply.ip_id = ++responder.ip_id_counter;
    reply.rtt_ms = kHostStackMs + fwd.delay_ms + icmp_ms + back.delay_ms +
                   back_host_ms + rng_.Exponential(0.12);
    return reply;
  }

  // Reaches the destination host: ICMP echo reply.
  if (!path.reached) return reply;
  const SegmentCost fwd = AccumulatePath(path, path.hops.size(), t, pkey);
  if (fwd.lost) return reply;
  double fwd_host_ms = path.host_delay_ms;
  if (path.host_link != topo::kInvalidId) {
    const SegmentCost hostc = CrossLink(path.host_link, path.host_dir, t,
                                        stats::Rng::HashMix(pkey, 3));
    if (hostc.lost) return reply;
    fwd_host_ms += hostc.delay_ms;
  }
  const RouterId dest_router = path.hops.empty()
                                   ? topo_->vp(vp).first_hop
                                   : path.hops.back().router;
  // A blackholed router answers nothing, echo requests included.
  if (fault_hook_ != nullptr && topo_->IfaceByAddr(dst).has_value() &&
      fault_hook_->IcmpAt(dest_router, t).blackholed) {
    return reply;
  }
  const topo::VantagePoint& v = topo_->vp(vp);
  const ForwardPath& rev = PathFromRouter(dest_router, v.addr, flow, epoch);
  if (!rev.reached) return reply;
  const SegmentCost back =
      AccumulatePath(rev, rev.hops.size(), t, stats::Rng::HashMix(pkey, 4));
  if (back.lost) return reply;
  double back_host_ms = rev.host_delay_ms;
  if (rev.host_link != topo::kInvalidId) {
    const SegmentCost hostc = CrossLink(rev.host_link, rev.host_dir, t,
                                        stats::Rng::HashMix(pkey, 5));
    if (hostc.lost) return reply;
    back_host_ms += hostc.delay_ms;
  }
  reply.outcome = ProbeOutcome::kEchoReply;
  reply.responder = dst;
  reply.hop_index = static_cast<int>(path.hops.size());
  // Echo replies from router-owned addresses carry the router's shared IP-ID
  // counter (the signal Ally-style alias resolution relies on); plain hosts
  // get an arbitrary value.
  if (const auto difc = topo_->IfaceByAddr(dst)) {
    reply.ip_id = ++topo_->router(topo_->iface(*difc).router).ip_id_counter;
  } else {
    reply.ip_id = static_cast<std::uint32_t>(stats::Rng::HashMix(dst.value(), t));
  }
  reply.rtt_ms = kHostStackMs + fwd.delay_ms + fwd_host_ms + back.delay_ms +
                 back_host_ms + rng_.Exponential(0.12);
  return reply;
}

ProbeReply SimNetwork::Ping(VpId vp, Ipv4Addr dst, FlowId flow, TimeSec t) {
  return Probe(vp, dst, 255, flow, t);
}

SimNetwork::RecordRouteReply SimNetwork::ProbeRecordRoute(VpId vp,
                                                          Ipv4Addr dst,
                                                          int ttl, FlowId flow,
                                                          TimeSec t) {
  RecordRouteReply rr;
  rr.reply = Probe(vp, dst, ttl, flow, t);
  if (rr.reply.outcome != ProbeOutcome::kTtlExpired) return rr;
  // Reconstruct the reply's path (the same one Probe() charged delay/loss
  // against) and record the egress interface of each traversed router.
  const std::uint32_t epoch = RouteEpochAt(t);
  const ForwardPath& fwd = PathFromVp(vp, dst, flow, epoch);
  const std::size_t idx = static_cast<std::size_t>(ttl) - 1;
  if (idx >= fwd.hops.size()) return rr;
  const topo::VantagePoint& v = topo_->vp(vp);
  const ForwardPath& rev =
      PathFromRouter(fwd.hops[idx].router, v.addr, flow, epoch);
  RouterId cur = fwd.hops[idx].router;
  for (const Hop& hop : rev.hops) {
    if (rr.reverse_route.size() >= kRecordRouteSlots) break;
    if (hop.via_link == topo::kInvalidId) continue;
    const topo::Link& l = topo_->link(hop.via_link);
    // Egress iface of the router the packet LEFT (the RR convention).
    const topo::IfaceId egress = topo_->IfaceOn(l, cur);
    if (egress != topo::kInvalidId && topo_->router(cur).icmp.responds) {
      rr.reverse_route.push_back(topo_->iface(egress).addr);
    }
    cur = hop.router;
  }
  return rr;
}

QueueObservation SimNetwork::ObservedQueue(LinkId link, Direction dir,
                                          TimeSec t) const {
  const LinkDemand* demand = DemandOf(link, dir);
  if (demand == nullptr) return {};
  const LinkDynamics& dyn = dynamics_[link];
  bool up = true;
  const double u = FaultedUtilization(*demand, dyn, link, t, &up);
  // Nothing queues on a dead link, and it loses every packet.
  if (!up) return {.delay_ms = 0.0, .loss_prob = 1.0};
  return dyn.queue.Observe(u);
}

SimNetwork::ProbeExpectation SimNetwork::ExpectProbe(VpId vp, Ipv4Addr dst,
                                                     int ttl, FlowId flow,
                                                     TimeSec t,
                                                     bool include_queues) {
  ProbeExpectation exp;
  if (fault_hook_ != nullptr && !fault_hook_->VpUpAt(vp, t)) {
    return exp;  // VP out: no probe leaves the host
  }
  const std::uint32_t epoch = RouteEpochAt(t);
  const ForwardPath& path = PathFromVp(vp, dst, flow, epoch);
  if (path.hops.empty() || ttl > static_cast<int>(path.hops.size())) {
    return exp;  // expectation API covers TTL-limited probes only
  }
  const std::size_t idx = static_cast<std::size_t>(ttl) - 1;

  double delay = kHostStackMs;
  double ok = 1.0;
  auto cross_mean = [&](LinkId link, Direction dir) {
    const topo::Link& l = topo_->link(link);
    delay += l.propagation_ms();
    if (fault_hook_ != nullptr && !fault_hook_->LinkAt(link, t).up) {
      ok = 0.0;
      return;
    }
    if (include_queues && dynamics_.size() > link) {
      const LinkDynamics& dyn = dynamics_[link];
      const auto& demand = dyn.demand[static_cast<int>(dir)];
      if (demand) {
        const double u = FaultedUtilization(*demand, dyn, link, t, nullptr);
        const QueueObservation obs = dyn.queue.Observe(u);
        delay += obs.delay_ms;
        ok *= 1.0 - obs.loss_prob;
      }
    }
  };
  for (std::size_t i = 0; i <= idx; ++i) {
    if (path.hops[i].via_link != topo::kInvalidId) {
      cross_mean(path.hops[i].via_link, path.hops[i].via_dir);
    }
  }
  const topo::Router& responder = topo_->router(path.hops[idx].router);
  if (!responder.icmp.responds) return exp;
  if (fault_hook_ != nullptr) {
    const FaultHook::IcmpState ic =
        fault_hook_->IcmpAt(path.hops[idx].router, t);
    if (ic.blackholed) return exp;
    ok *= 1.0 - ic.extra_loss_frac;
  }
  ok *= 1.0 - responder.icmp.response_loss_prob;
  delay += responder.icmp.slow_path_prob * responder.icmp.slow_path_extra_ms;

  const topo::VantagePoint& v = topo_->vp(vp);
  const ForwardPath& rev =
      PathFromRouter(path.hops[idx].router, v.addr, flow, epoch);
  if (!rev.reached) return exp;
  for (const Hop& hop : rev.hops) {
    if (hop.via_link != topo::kInvalidId) cross_mean(hop.via_link, hop.via_dir);
  }
  if (rev.host_link != topo::kInvalidId) {
    cross_mean(rev.host_link, rev.host_dir);
  }
  delay += rev.host_delay_ms;

  exp.reachable = true;
  exp.rtt_ms = delay + 0.12;  // mean of the per-probe jitter term
  exp.loss_prob = 1.0 - ok;
  exp.responder = topo_->iface(path.hops[idx].ingress_iface).addr;
  return exp;
}

PathMetrics SimNetwork::MetricsFor(VpId vp, Ipv4Addr dst, FlowId flow,
                                   TimeSec t) {
  PathMetrics m;
  if (fault_hook_ != nullptr && !fault_hook_->VpUpAt(vp, t)) return m;
  const std::uint32_t epoch = RouteEpochAt(t);
  const ForwardPath& fwd = PathFromVp(vp, dst, flow, epoch);
  if (!fwd.reached) return m;
  const topo::VantagePoint& v = topo_->vp(vp);
  const RouterId dest_router =
      fwd.hops.empty() ? v.first_hop : fwd.hops.back().router;
  const ForwardPath& rev = PathFromRouter(dest_router, v.addr, flow, epoch);
  if (!rev.reached) return m;
  m.reachable = true;
  m.min_capacity_gbps = std::numeric_limits<double>::infinity();

  auto scan = [&](const ForwardPath& p, bool down) {
    double ok = 1.0;
    for (const Hop& hop : p.hops) {
      if (hop.via_link == topo::kInvalidId) continue;
      const topo::Link& l = topo_->link(hop.via_link);
      m.rtt_ms += l.propagation_ms();
      if (fault_hook_ != nullptr && !fault_hook_->LinkAt(hop.via_link, t).up) {
        ok = 0.0;
        continue;
      }
      if (dynamics_.size() > hop.via_link) {
        const LinkDynamics& dyn = dynamics_[hop.via_link];
        const auto& demand = dyn.demand[static_cast<int>(hop.via_dir)];
        if (demand) {
          const double u =
              FaultedUtilization(*demand, dyn, hop.via_link, t, nullptr);
          const QueueObservation obs = dyn.queue.Observe(u);
          m.rtt_ms += obs.delay_ms;
          ok *= 1.0 - obs.loss_prob;
          if (down && (l.kind == topo::LinkKind::kInterdomain ||
                       l.kind == topo::LinkKind::kIxp)) {
            if (u > m.worst_down_utilization) {
              m.worst_down_utilization = u;
              m.worst_down_link = hop.via_link;
            }
          }
        }
      }
      if (l.kind == topo::LinkKind::kInterdomain ||
          l.kind == topo::LinkKind::kIxp) {
        m.min_capacity_gbps = std::min(m.min_capacity_gbps, l.capacity_gbps());
      }
    }
    return 1.0 - ok;
  };

  m.loss_up = scan(fwd, /*down=*/false);
  m.loss_down = scan(rev, /*down=*/true);
  m.rtt_ms += fwd.host_delay_ms + rev.host_delay_ms + kHostStackMs;
  if (!std::isfinite(m.min_capacity_gbps)) m.min_capacity_gbps = 1.0;
  return m;
}

}  // namespace manic::sim
