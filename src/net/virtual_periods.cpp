// Virtual link periods: MeshNet::drain() skips proven-periodic stretches
// of a halo transfer without dispatching their events.
//
// Once a drain settles, the link protocol repeats exactly: every wire
// carries one 72-bit data frame per word slot, plus a 16-bit ACK when the
// reverse direction streams too, and the 2-bit sequence numbers bring the
// whole state back every four slots.  drain() runs the per-word path in
// steps of that state period P and compares the machine at each step
// boundary with the one a period before:
//
//   - every link of every node (SendSide, Hssl, RecvSide, DMA engines):
//     queues, windows, sequence numbers, frames on the wire, times relative
//     to the boundary -- data words left out, since they never steer the
//     protocol -- plus the words in transit on each link;
//   - every rank's pending events earlier than one period on, relative to
//     the boundary and to their source's schedule count, with their kind.
//
// Two equal boundaries prove the period: from that state the machine runs
// the same events again, shifted by P and by each source's schedules per
// period.  The keys executed in between are the template.  At any later
// boundary in the same state, `n` whole periods are spliced: the engine
// folds the template's keys n times into the rank digests
// (ParallelEngine::splice_periods), every lifetime counter grows n times
// its per-period growth, and n periods' words move from each send queue
// straight into their slots in the receiver's memory.  The words in flight
// at the boundary stay in flight and land where they always would; the
// receive DMA skips the spliced slots after them.
//
// n stops short of every event outside the periodic picture (the resend
// timeouts every few thousand cycles, watchdogs; host events a full period
// early, so every word in flight at the splice has landed before the host
// next acts) and of the last period's words of every transfer; the
// per-word path runs the period that holds such an event, and the next
// boundary in the known state splices again.  Anything outside a clean data
// stream -- a wire with bit errors or not trained, armed ack drops or
// forced corruptions, supervisor, partition-interrupt, NACK or resend
// traffic, idle-receive holds, scrubbers, more than one engine thread --
// makes the boundaries differ or the drain ineligible, and those stretches
// run per word.  The per-word path is the only implementation of the
// protocol and the oracle the splice is tested against
// (tests/test_virtual_periods.cpp).
#include <algorithm>
#include <numeric>

#include "net/mesh_net.h"
#include "scu/packet.h"

namespace qcdoc::net {

using torus::LinkIndex;

namespace {
/// Words per state period on a streaming link: the 2-bit sequence space.
constexpr Cycle kSeqSpace = 4;
/// Longest period worth proving.
constexpr Cycle kMaxPeriod = 1024;
/// Boundaries in a row that may match neither the one before nor the
/// known period before drain() stops taking them: a stream that does not
/// settle into the period (one waiting on every ACK, say) then runs per
/// word to the end without paying for a signature every period.
constexpr int kMaxMisses = 4;
}  // namespace

struct MeshNet::Boundary {
  Cycle at = 0;
  std::vector<u64> sig;        ///< relative state, compared whole
  std::vector<u64> counters;   ///< lifetime counters, node by node
  std::vector<u64> sent;       ///< words taken from each send queue
  std::vector<u64> in_transit; ///< ...and of those, not yet accepted
  std::vector<u64> scheduled;  ///< schedule count of each engine rank
  std::vector<sim::FarEvent> far;  ///< pending events past one period
  bool fresh_far = false;      ///< one was scheduled since `prev`
};

sim::ParallelEngine* MeshNet::splice_engine() const {
  if (!cfg_.virtual_periods || !scrubbers_.empty()) return nullptr;
  auto* pe = dynamic_cast<sim::ParallelEngine*>(engine_);
  return pe != nullptr && pe->threads() == 1 ? pe : nullptr;
}

Cycle MeshNet::splice_period() const {
  const auto data = static_cast<Cycle>(scu::frame_bits(scu::PacketType::kData));
  const auto ack = static_cast<Cycle>(scu::frame_bits(scu::PacketType::kAck));
  Cycle period = 0;
  for (int i = 0; i < num_nodes(); ++i) {
    const NodeId node{static_cast<u32>(i)};
    for (int l = 0; l < torus::kLinksPerNode; ++l) {
      const LinkIndex link{l};
      if (!scus_[node.value]->send_dma(link).active()) continue;
      // A word slot is one data frame, plus the ACK this wire carries for
      // the reverse stream when there is one.
      const bool reverse = scus_[topology_.neighbor(node, link).value]
                               ->send_dma(torus::facing_link(link))
                               .active();
      const Cycle p = kSeqSpace * (data + (reverse ? ack : 0));
      period = period == 0 ? p : std::lcm(period, p);
    }
  }
  return period <= kMaxPeriod ? period : 0;
}

bool MeshNet::take_boundary(Cycle at, Cycle period, const Boundary* prev,
                            Boundary& out) const {
  out.at = at;
  out.sig.clear();
  out.counters.clear();
  out.sent.clear();
  out.in_transit.clear();
  const u64 window = static_cast<u64>(cfg_.scu.link.ack_window);
  for (int i = 0; i < num_nodes(); ++i) {
    const NodeId node{static_cast<u32>(i)};
    scu::Scu& scu = *scus_[node.value];
    const sim::StatSet& stats = *stats_[node.value];
    out.sig.push_back(stats.size());
    stats.values(out.counters);
    for (int l = 0; l < torus::kLinksPerNode; ++l) {
      const LinkIndex link{l};
      const scu::SendSide& send = scu.send_side(link);
      const hssl::Hssl& w = *wires_[node.value * torus::kLinksPerNode +
                                    static_cast<std::size_t>(l)];
      const scu::RecvSide& recv = scu.recv_side(link);
      const scu::RecvDma& rdma = scu.recv_dma(link);
      if (!send.period_ready() || !w.period_ready() || !recv.period_ready() ||
          !rdma.period_ready()) {
        return false;
      }
      send.period_signature(out.sig, at);
      w.period_signature(out.sig);
      recv.period_signature(out.sig);
      rdma.period_signature(out.sig, at);
      out.sig.push_back(scu.send_dma(link).active());
      send.period_counters(out.counters);
      w.period_counters(out.counters);
      recv.period_counters(out.counters);
      rdma.period_counters(out.counters);
      // Words taken from the queue that the far side has not accepted yet:
      // they are on the wire, within the window.
      const u64 in_transit =
          send.words_sent() - scus_[topology_.neighbor(node, link).value]
                                  ->recv_side(torus::facing_link(link))
                                  .words_received();
      if (in_transit > window) return false;
      out.sig.push_back(in_transit);
      out.sent.push_back(send.words_sent());
      out.in_transit.push_back(in_transit);
    }
  }
  auto& pe = static_cast<sim::ParallelEngine&>(*engine_);
  out.scheduled = pe.schedule_counts();
  out.far.clear();
  pe.pending_signature(at, period, out.sig, out.far);
  out.fresh_far =
      prev != nullptr &&
      std::any_of(out.far.begin(), out.far.end(), [prev](const auto& e) {
        return e.key.seq >= prev->scheduled[e.key.src_rank];
      });
  return true;
}

void MeshNet::learn_period(
    const Boundary& prev, const Boundary& cur,
    const std::vector<std::vector<sim::EventKey>>& keys) {
  Period p;
  p.sig = cur.sig;
  p.delta.resize(cur.counters.size());
  for (std::size_t k = 0; k < cur.counters.size(); ++k) {
    p.delta[k] = cur.counters[k] - prev.counters[k];
  }
  p.words.resize(cur.sent.size());
  bool moved = false;
  for (std::size_t k = 0; k < cur.sent.size(); ++k) {
    p.words[k] = cur.sent[k] - prev.sent[k];
    moved = moved || p.words[k] != 0;
  }
  // A period must move words, and it may not contain host events: those
  // act on state no signature covers.
  if (!moved || !keys[0].empty()) return;
  p.keys.period = cur.at - prev.at;
  p.keys.schedules.resize(cur.scheduled.size());
  for (std::size_t r = 0; r < cur.scheduled.size(); ++r) {
    p.keys.schedules[r] = cur.scheduled[r] - prev.scheduled[r];
  }
  p.keys.keys = keys;
  for (std::vector<sim::EventKey>& rank : p.keys.keys) {
    for (sim::EventKey& k : rank) {
      k.time -= prev.at;
      k.seq -= prev.scheduled[k.src_rank];
    }
  }
  period_ = std::move(p);
}

u64 MeshNet::splice_bound(const Boundary& at) const {
  const Cycle period = period_.keys.period;
  // Host events count one period early: the host may act on any node, so
  // a splice must end a full period before one.
  Cycle far = sim::CalendarQueue::kNoEvent;
  for (const sim::FarEvent& e : at.far) {
    far = std::min(far, e.rank == 0 ? e.key.time - period : e.key.time);
  }
  u64 n = far == sim::CalendarQueue::kNoEvent ? ~u64{0}
                                              : (far - at.at) / period;
  // Leave at least one period of words on every link for the per-word
  // path, so no transfer's end falls inside a splice.
  const auto cap = [](u64 avail, u64 w) {
    return avail / w > 0 ? avail / w - 1 : 0;
  };
  std::size_t k = 0;
  for (int i = 0; i < num_nodes() && n > 0; ++i) {
    const NodeId node{static_cast<u32>(i)};
    for (int l = 0; l < torus::kLinksPerNode; ++l, ++k) {
      const u64 w = period_.words[k];
      if (w == 0) continue;
      const LinkIndex link{l};
      scu::Scu& to = *scus_[topology_.neighbor(node, link).value];
      const u64 in_transit = at.in_transit[k];
      const u64 left = to.recv_dma(torus::facing_link(link)).words_left();
      const u64 queued = scus_[node.value]->send_side(link).words_queued();
      n = std::min(n, cap(queued, w));
      n = std::min(n, left > in_transit ? cap(left - in_transit, w) : 0);
    }
  }
  return n;
}

void MeshNet::splice(sim::ParallelEngine& pe, const Boundary& at, u64 n) {
  const Cycle dt = n * period_.keys.period;
  const u64* delta = period_.delta.data();
  std::vector<u64> words;
  std::size_t k = 0;
  for (int i = 0; i < num_nodes(); ++i) {
    const NodeId node{static_cast<u32>(i)};
    scu::Scu& scu = *scus_[node.value];
    stats_[node.value]->add_times(delta, n);
    for (int l = 0; l < torus::kLinksPerNode; ++l) {
      const LinkIndex link{l};
      scu.send_side(link).skip_periods(n, delta, dt);
      wires_[node.value * torus::kLinksPerNode + static_cast<std::size_t>(l)]
          ->skip_periods(n, delta);
      scu.recv_side(link).skip_periods(n, delta);
      scu.recv_dma(link).skip_periods(n, delta, dt);
    }
  }
  for (int i = 0; i < num_nodes(); ++i) {
    const NodeId node{static_cast<u32>(i)};
    for (int l = 0; l < torus::kLinksPerNode; ++l, ++k) {
      const u64 w = period_.words[k];
      if (w == 0) continue;
      const LinkIndex link{l};
      scu::SendSide& send = scus_[node.value]->send_side(link);
      scu::Scu& to = *scus_[topology_.neighbor(node, link).value];
      const LinkIndex facing = torus::facing_link(link);
      scu::RecvSide& recv = to.recv_side(facing);
      words.clear();
      for (u64 j = 0; j < n * w; ++j) {
        words.push_back(send.take_queued_word());
        recv.absorb_word(words.back());
      }
      to.recv_dma(facing).land_ahead(at.in_transit[k], words.data(),
                                     words.size());
    }
  }
  pe.splice_periods(period_.keys, at.at, n);
}

bool MeshNet::drain_periodic(sim::ParallelEngine& pe) {
  using Stop = sim::ParallelEngine::DrainStop;
  Cycle period = splice_period();
  Cycle b = pe.now();
  Boundary prev;
  Boundary cur;
  bool have_prev = false;
  int misses = 0;
  std::vector<std::vector<sim::EventKey>> keys(pe.num_ranks());
  for (;;) {
    if (period == 0 || misses > kMaxMisses) {
      return pe.drain(active_transfers_);
    }
    for (auto& rank : keys) rank.clear();
    if (have_prev) pe.record_keys(&keys);
    const Stop stop = pe.drain_before(active_transfers_, b + period);
    pe.record_keys(nullptr);
    if (stop != Stop::kLimit) return stop == Stop::kDrained;
    b += period;
    // The set of streaming links can change as transfers end.
    if (const Cycle p = splice_period(); p != period) {
      period = p;
      have_prev = false;
      continue;
    }
    if (!take_boundary(b, period, have_prev ? &prev : nullptr, cur)) {
      have_prev = false;
      ++misses;
      continue;
    }
    const bool known = period_.keys.period == period && period_.sig == cur.sig;
    const bool repeats = have_prev && prev.sig == cur.sig;
    if (!known && repeats && !cur.fresh_far) learn_period(prev, cur, keys);
    misses = known || repeats ? 0 : misses + 1;
    if (period_.keys.period == period && period_.sig == cur.sig) {
      if (const u64 n = splice_bound(cur); n > 0) {
        splice(pe, cur, n);
        b += n * period;
        have_prev = false;
        continue;
      }
    }
    std::swap(prev, cur);
    have_prev = true;
  }
}

}  // namespace qcdoc::net
