// Bucketed calendar queue (timing wheel) for per-rank event storage.
//
// The engine's lookahead is ~18 cycles, so nearly every pending event on a
// rank lands within a few tens of cycles of the queue's current minimum.
// A binary heap pays O(log n) comparisons *and* O(log n) moves of a
// 96-byte event per push and pop; the calendar queue instead keeps a ring
// of 128 one-cycle buckets covering the 128 cycles from the current
// minimum -- push links the event into its bucket (at its tail, in the
// usual case of a largest key), pop takes the head of
// the earliest occupied bucket (tracked by an occupancy bitmap, so finding
// it is a countr_zero or two).  The window slides forward with every pop.
// Events beyond its horizon (scrubber periods, watchdog ticks, resend
// timeouts) wait in a small overflow heap and move into the wheel as the
// window reaches them.
//
// Pop order is exactly the engine's per-rank key order (time, src, seq): a
// bucket holds a single timestamp and keeps its events sorted by (src,
// seq), so the tie-break is settled at insertion.  The property test in
// tests/test_calendar_queue.cpp checks this queue against a reference
// std::priority_queue over randomized schedules.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <vector>

#include "common/types.h"
#include "sim/event_fn.h"

namespace qcdoc::sim {

/// One pending event as stored per destination rank.  The destination is
/// implied by which queue holds it.
struct QueuedEvent {
  Cycle time;
  u32 src_rank;
  u64 seq;
  EventFn fn;
};

/// The engine's per-rank ordering key: (time, src, seq).
struct EventKey {
  Cycle time;
  u32 src_rank;
  u64 seq;

  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.src_rank != b.src_rank) return a.src_rank < b.src_rank;
    return a.seq < b.seq;
  }
};

class CalendarQueue {
 public:
  static constexpr Cycle kNoEvent = ~Cycle{0};
  static constexpr u32 kWheelBits = 7;
  /// 128 one-cycle buckets: wide enough that a 72-bit data frame's
  /// serializer-free and delivery events (72 and 74 cycles out) land in
  /// the wheel, not the overflow heap.
  static constexpr u32 kWheelSize = 1u << kWheelBits;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Timestamp of the earliest pending event, kNoEvent when empty.  O(1).
  Cycle min_time() const { return min_time_; }

  /// Insert an event, building its node in place from `fn`.  Returns true
  /// when it became the queue's new earliest event (strictly earlier than
  /// the previous minimum, or the queue was empty) -- the signal the engine
  /// uses to maintain its shard heaps.
  bool push(Cycle t, u32 src_rank, u64 seq, EventFn&& fn) {
    if (size_ == 0) {
      // Re-anchor the wheel on the first event so long idle gaps (a
      // scrubber waking every 2^14 cycles) stay on the fast path.
      horizon_ = t + kWheelSize;
    } else if (t + kWheelSize < horizon_) {
      // Below the wheel window: only possible via host-time schedules onto
      // a rank whose wheel ran ahead.  Rare; pull the window back.
      lower_horizon(t + kWheelSize);
    }
    const u32 i = new_node(t, src_rank, seq, std::move(fn));
    if (t < horizon_) {
      link(i);
    } else {
      push_far(i);
    }
    ++size_;
    if (t < min_time_ || size_ == 1) {
      min_time_ = t;
      return true;
    }
    return false;
  }

  /// Insert an event that already carries its key (an outbox merge).
  bool push(QueuedEvent&& ev) {
    return push(ev.time, ev.src_rank, ev.seq, std::move(ev.fn));
  }

  /// Remove and return the earliest event (by (time, src, seq)).  Requires
  /// non-empty.  O(1) plus the window slide.
  QueuedEvent pop_min() {
    const std::size_t bi = bucket_of(min_time_);
    const u32 i = head_[bi];
    Node& n = nodes_[i];
    QueuedEvent ev{n.time, n.src_rank, n.seq, std::move(n.fn)};
    head_[bi] = n.next;
    n.next = free_;
    free_ = i;
    --wheel_count_;
    --size_;
    if (head_[bi] == kNil) clear_bit(bi);
    advance_min();
    return ev;
  }

 private:
  static constexpr u32 kNil = ~u32{0};

  /// One pending event: QueuedEvent plus the link to the next event of its
  /// bucket (or of the free list), packed into the key's padding.  Events
  /// stay in their node from push to pop; the wheel links nodes into
  /// buckets and the overflow heap refers to them by index.
  struct Node {
    Cycle time = 0;
    u32 src_rank = 0;
    u32 next = kNil;
    u64 seq = 0;
    EventFn fn;
  };

  /// Overflow-heap entry: an event's key and its node.
  struct FarRef {
    Cycle time;
    u32 src_rank;
    u32 node;
    u64 seq;
  };
  struct FarLater {
    bool operator()(const FarRef& a, const FarRef& b) const {
      return key_of(b) < key_of(a);
    }
  };

  template <typename E>
  static EventKey key_of(const E& e) {
    return EventKey{e.time, e.src_rank, e.seq};
  }
  static std::size_t bucket_of(Cycle t) {
    return static_cast<std::size_t>(t) & (kWheelSize - 1);
  }

  u32 new_node(Cycle t, u32 src_rank, u64 seq, EventFn&& fn) {
    u32 i = free_;
    if (i != kNil) {
      free_ = nodes_[i].next;
    } else {
      i = static_cast<u32>(nodes_.size());
      nodes_.emplace_back();
    }
    Node& n = nodes_[i];
    n.time = t;
    n.src_rank = src_rank;
    n.seq = seq;
    n.fn = std::move(fn);
    return i;
  }

  /// Link node `i` into its bucket's list, which is kept sorted by key so
  /// the head is always the bucket's minimum.  New events almost always
  /// carry the largest key of their bucket, so the list's tail is checked
  /// first and the usual insert is O(1); otherwise the (short) list is
  /// walked from the head.
  void link(u32 i) {
    Node& n = nodes_[i];
    const EventKey k = key_of(n);
    const std::size_t bi = bucket_of(n.time);
    if (head_[bi] == kNil) {
      n.next = kNil;
      head_[bi] = tail_[bi] = i;
      occupied_[bi / 64] |= u64{1} << (bi % 64);
    } else if (key_of(nodes_[tail_[bi]]) < k) {
      n.next = kNil;
      nodes_[tail_[bi]].next = i;
      tail_[bi] = i;
    } else {
      // Lands before the tail, so the tail stays.
      u32* at = &head_[bi];
      while (key_of(nodes_[*at]) < k) at = &nodes_[*at].next;
      n.next = *at;
      *at = i;
    }
    ++wheel_count_;
  }

  void push_far(u32 i) {
    const Node& n = nodes_[i];
    far_.push_back(FarRef{n.time, n.src_rank, i, n.seq});
    std::push_heap(far_.begin(), far_.end(), FarLater{});
  }

  void clear_bit(std::size_t b) { occupied_[b / 64] &= ~(u64{1} << (b % 64)); }

  /// Cycles from bucket `from` forward (cyclically) to the next occupied
  /// bucket, `from` itself included.  Requires a non-empty wheel.
  std::size_t distance_to_occupied(std::size_t from) const {
    const std::size_t w0 = from / 64;
    const unsigned off = static_cast<unsigned>(from % 64);
    // Rest of the first word, then whole words, then its head on wrap.
    u64 bits = occupied_[w0] >> off;
    if (bits != 0) return static_cast<std::size_t>(std::countr_zero(bits));
    std::size_t d = 64 - off;
    for (std::size_t k = 1; k <= kWords; ++k) {
      bits = occupied_[(w0 + k) % kWords];
      if (bits != 0) {
        return d + static_cast<std::size_t>(std::countr_zero(bits));
      }
      d += 64;
    }
    return d;  // unreachable on a non-empty wheel
  }

  /// Recompute min_time_ after a pop, then slide the wheel window forward
  /// to start at it, pulling in overflow events the slide uncovers.  The
  /// window therefore always begins at the earliest pending event and
  /// holds everything within kWheelSize cycles of it.
  void advance_min() {
    if (size_ == 0) {
      min_time_ = kNoEvent;
      return;
    }
    if (wheel_count_ > 0) {
      // All wheel events are >= the popped minimum and inside one
      // kWheelSize-cycle window, so the occupied bucket j positions past
      // min_time_'s holds exactly the event time min_time_ + j.
      min_time_ +=
          static_cast<Cycle>(distance_to_occupied(bucket_of(min_time_)));
    } else {
      min_time_ = far_.front().time;
    }
    horizon_ = min_time_ + kWheelSize;
    while (!far_.empty() && far_.front().time < horizon_) {
      const u32 i = far_.front().node;
      std::pop_heap(far_.begin(), far_.end(), FarLater{});
      far_.pop_back();
      link(i);
    }
  }

  /// Move the window's end down to `h`, spilling every bucketed event at
  /// or past it to the overflow heap.
  void lower_horizon(Cycle h) {
    for (std::size_t w = 0; w < kWords; ++w) {
      for (u64 bits = occupied_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t bi =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        if (nodes_[head_[bi]].time < h) continue;
        for (u32 i = head_[bi]; i != kNil; i = nodes_[i].next) {
          push_far(i);
          --wheel_count_;
        }
        head_[bi] = kNil;
        clear_bit(bi);
      }
    }
    horizon_ = h;
  }

  static constexpr std::size_t kWords = kWheelSize / 64;

  /// Event storage: one slab of nodes per queue, recycled through a free
  /// list, so the memory held is the pending events, not 128 buckets'
  /// high-water marks, and no event moves between wheel and overflow heap.
  std::vector<Node> nodes_;
  u32 free_ = kNil;
  std::array<u32, kWheelSize> head_ = make_empty_heads();
  /// Last node of each bucket's list; meaningful only while its head is set.
  std::array<u32, kWheelSize> tail_{};
  std::array<u64, kWords> occupied_{};  ///< bit b set iff bucket b non-empty
  /// Wheel events lie in [horizon_ - kWheelSize, horizon_), overflow events
  /// at or past horizon_, so a non-empty queue's minimum is always bucketed.
  Cycle horizon_ = 0;
  std::size_t wheel_count_ = 0;
  std::vector<FarRef> far_;  ///< min-heap by key (std::push_heap/pop_heap)
  std::size_t size_ = 0;
  Cycle min_time_ = kNoEvent;

  static constexpr std::array<u32, kWheelSize> make_empty_heads() {
    std::array<u32, kWheelSize> h{};
    h.fill(kNil);
    return h;
  }
};

}  // namespace qcdoc::sim
