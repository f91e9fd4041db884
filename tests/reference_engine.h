// Test-only reference engine: one binary heap, one thread.
//
// This is the plainest possible implementation of engine.h's execution-order
// contract -- every pending event in one std::priority_queue ordered by the
// full key (time, dest rank, src rank, seq).  The simulator never runs on
// it; it exists as the oracle the production engine is diff-tested against
// (tests/test_parallel_engine.cpp), so it favours obviousness over speed.
// It keeps the production engine's digest fold and clock-capture format so
// the two can be compared number for number.
#pragma once

#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/engine.h"

namespace qcdoc::sim {

class ReferenceEngine final : public Engine {
 public:
  void schedule_at_on(Affinity dest, Cycle t, Action&& fn) override {
    const Cycle current = now();
    if (t < current) throw_past(t, current);
    const u32 src = detail::affinity_rank(current_affinity());
    queue_.push(Event{t, detail::affinity_rank(dest), src,
                      stream(src).scheduled++, std::move(fn)});
  }

  bool step() override {
    if (queue_.empty()) return false;
    // The element is popped right after the move, so the heap never
    // observes the moved-from action.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.time;
    Stream& dst = stream(ev.dest_rank);
    dst.digest = detail::fnv1a(dst.digest, ev.time);
    dst.digest =
        detail::fnv1a(dst.digest, (u64{ev.dest_rank} << 32) | ev.src_rank);
    dst.digest = detail::fnv1a(dst.digest, ev.seq);
    ++dst.executed;
    ++events_;
    const detail::ScopedExecCtx ctx(this, ev.time,
                                    detail::rank_affinity(ev.dest_rank),
                                    detail::rank_affinity(ev.src_rank), ev.seq);
    ev.fn();
    return true;
  }

  Cycle run_until_idle() override {
    while (step()) {
    }
    return now_;
  }

  void run_until(Cycle t) override {
    while (!queue_.empty() && queue_.top().time <= t) step();
    if (t > now_) now_ = t;
  }

  void advance_to(Cycle t) override {
    if (!queue_.empty() && queue_.top().time < t) {
      throw std::logic_error("Engine::advance_to would skip pending events");
    }
    if (t > now_) now_ = t;
  }

  bool drain(const ActiveCounter& counter) override {
    while (counter.value() != 0) {
      if (!step()) return false;
    }
    return true;
  }

  std::size_t pending_events() const override { return queue_.size(); }
  u64 events_executed() const override { return events_; }

  u64 trace_digest() const override {
    u64 h = detail::kFnvOffset;
    for (u32 r = 0; r < streams_.size(); ++r) {
      if (streams_[r].executed == 0) continue;
      h = detail::fnv1a(h, r);
      h = detail::fnv1a(h, streams_[r].executed);
      h = detail::fnv1a(h, streams_[r].digest);
    }
    return h;
  }

  EngineReport report() const override {
    EngineReport rep;
    rep.events = events_;
    return rep;
  }

  EngineClockState capture_clock() const override {
    EngineClockState st;
    st.now = now_;
    st.events_executed = events_;
    for (u32 r = 0; r < streams_.size(); ++r) {
      const Stream& s = streams_[r];
      if (s.scheduled == 0 && s.executed == 0) continue;
      st.streams.push_back({r, s.scheduled, s.executed, s.digest});
    }
    return st;
  }

  void restore_clock(const EngineClockState& state) override {
    if (!queue_.empty()) {
      throw std::logic_error("ReferenceEngine::restore_clock with pending events");
    }
    now_ = state.now;
    events_ = state.events_executed;
    streams_.clear();
    for (const EngineStreamState& s : state.streams) {
      Stream& dst = stream(s.rank);
      dst.scheduled = s.scheduled;
      dst.executed = s.executed;
      dst.digest = s.digest;
    }
  }

 private:
  struct Event {
    Cycle time;
    u32 dest_rank;
    u32 src_rank;
    u64 seq;
    Action fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.dest_rank != b.dest_rank) return a.dest_rank > b.dest_rank;
      if (a.src_rank != b.src_rank) return a.src_rank > b.src_rank;
      return a.seq > b.seq;
    }
  };
  /// Per-rank bookkeeping: schedule counter as a source, execution count and
  /// order digest as a destination.
  struct Stream {
    u64 scheduled = 0;
    u64 executed = 0;
    u64 digest = detail::kFnvOffset;
  };

  Stream& stream(u32 rank) {
    if (streams_.size() <= rank) streams_.resize(rank + 1);
    return streams_[rank];
  }

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<Stream> streams_;
  u64 events_ = 0;
};

}  // namespace qcdoc::sim
