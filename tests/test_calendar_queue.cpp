// Property tests for the bucketed calendar queue (sim/calendar_queue.h):
// against a reference std::priority_queue it must pop the exact same
// (time, src, seq) key sequence under randomized schedules, including
// same-cycle ties across sources and sequence numbers, wheel-horizon
// overflow (far heap), migration, and below-base rebasing.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "sim/calendar_queue.h"

using namespace qcdoc;
using namespace qcdoc::sim;

namespace {

struct KeyLater {
  bool operator()(const EventKey& a, const EventKey& b) const {
    return b < a;
  }
};
using RefQueue =
    std::priority_queue<EventKey, std::vector<EventKey>, KeyLater>;

/// The engine's schedule-time pattern: events land at `now + offset` where
/// the offset distribution mixes same-cycle ties, in-wheel offsets, offsets
/// past the wheel horizon, and scrubber-period jumps.
Cycle random_offset(Rng& rng) {
  switch (rng.next_below(8)) {
    case 0:
      return 0;  // same-cycle tie
    case 1:
    case 2:
    case 3:
      return rng.next_below(18);  // within the lookahead window
    case 4:
    case 5:
      return rng.next_below(CalendarQueue::kWheelSize);  // wheel edge
    case 6:
      return 64 + rng.next_below(1000);  // past the wheel, near
    default:
      return 1 << 14;  // scrubber period, far heap for sure
  }
}

void run_campaign(u64 seed, int steps, double push_prob) {
  Rng rng(seed);
  CalendarQueue cq;
  RefQueue ref;
  Cycle now = 0;
  std::vector<u64> seq_per_src(4, 0);
  u64 executed = 0;

  for (int step = 0; step < steps; ++step) {
    const bool do_push = cq.empty() || rng.next_double() < push_prob;
    if (do_push) {
      const u32 src = static_cast<u32>(rng.next_below(4));
      const Cycle t = now + random_offset(rng);
      const u64 seq = seq_per_src[src]++;
      const bool expect_new_min = ref.empty() || t < ref.top().time;
      // Payload checks the stored action survives bucket moves, far-heap
      // migration and rebasing intact.
      u64* out = &executed;
      const u64 stamp = t ^ (u64{src} << 48) ^ seq;
      EXPECT_EQ(cq.push(QueuedEvent{t, src, seq,
                                    [out, stamp] { *out ^= stamp; }}),
                expect_new_min)
          << "push return at step " << step;
      ref.push(EventKey{t, src, seq});
    } else {
      ASSERT_FALSE(cq.empty());
      ASSERT_EQ(cq.size(), ref.size());
      const EventKey want = ref.top();
      ref.pop();
      EXPECT_EQ(cq.min_time(), want.time);
      QueuedEvent ev = cq.pop_min();
      ASSERT_EQ(ev.time, want.time) << "at step " << step;
      ASSERT_EQ(ev.src_rank, want.src_rank) << "at step " << step;
      ASSERT_EQ(ev.seq, want.seq) << "at step " << step;
      const u64 before = executed;
      ev.fn();
      EXPECT_EQ(executed,
                before ^ (ev.time ^ (u64{ev.src_rank} << 48) ^ ev.seq));
      now = ev.time;
    }
  }
  // Drain what remains; order must still match exactly.
  while (!ref.empty()) {
    const EventKey want = ref.top();
    ref.pop();
    ASSERT_FALSE(cq.empty());
    QueuedEvent ev = cq.pop_min();
    ASSERT_EQ(ev.time, want.time);
    ASSERT_EQ(ev.src_rank, want.src_rank);
    ASSERT_EQ(ev.seq, want.seq);
  }
  EXPECT_TRUE(cq.empty());
  EXPECT_EQ(cq.min_time(), CalendarQueue::kNoEvent);
}

TEST(CalendarQueue, MatchesReferencePushHeavy) {
  for (const u64 seed : {1u, 2u, 3u, 4u}) {
    run_campaign(seed, 20000, 0.65);
  }
}

TEST(CalendarQueue, MatchesReferencePopHeavy) {
  for (const u64 seed : {11u, 12u, 13u, 14u}) {
    run_campaign(seed, 20000, 0.45);
  }
}

TEST(CalendarQueue, SameCycleTieStormAcrossSources) {
  // Many sources all scheduling onto one timestamp: pop order must be
  // (src, seq) lexicographic within the shared cycle.
  CalendarQueue cq;
  Rng rng(99);
  RefQueue ref;
  for (int burst = 0; burst < 50; ++burst) {
    const Cycle t = 1000 * static_cast<Cycle>(burst);
    std::vector<u64> seq(8, u64{0} + static_cast<u64>(burst) * 100);
    for (int i = 0; i < 64; ++i) {
      const u32 src = static_cast<u32>(rng.next_below(8));
      const u64 s = seq[src]++;
      cq.push(QueuedEvent{t, src, s, [] {}});
      ref.push(EventKey{t, src, s});
    }
  }
  while (!ref.empty()) {
    const EventKey want = ref.top();
    ref.pop();
    QueuedEvent ev = cq.pop_min();
    ASSERT_EQ(ev.time, want.time);
    ASSERT_EQ(ev.src_rank, want.src_rank);
    ASSERT_EQ(ev.seq, want.seq);
  }
  EXPECT_TRUE(cq.empty());
}

TEST(CalendarQueue, SameBucketInsertsInAnyKeyOrder) {
  // Buckets keep a tail index so the usual largest-key insert is O(1).
  // Insert into shared buckets in descending, ascending and shuffled key
  // order, so every insert lands before, after or between the existing
  // ones, interleaved with pops that empty and refill the buckets.
  CalendarQueue cq;
  RefQueue ref;
  Rng rng(7);
  u64 ran = 0;
  u64 want_ran = 0;
  for (Cycle base = 0; base < 64 * 300; base += 64) {
    const int pattern = static_cast<int>((base / 64) % 3);
    for (int b = 0; b < 3; ++b) {
      const Cycle t = base + 5 * static_cast<Cycle>(b);
      std::vector<EventKey> keys;
      for (u32 src = 0; src < 4; ++src) {
        for (u64 seq = 0; seq < 3; ++seq) keys.push_back({t, src, base + seq});
      }
      if (pattern == 0) {
        std::sort(keys.begin(), keys.end(),
                  [](const EventKey& a, const EventKey& b) { return b < a; });
      } else if (pattern == 2) {
        for (std::size_t i = keys.size(); i > 1; --i) {
          std::swap(keys[i - 1], keys[rng.next_below(i)]);
        }
      }
      for (const EventKey& k : keys) {
        const u64 stamp = k.time ^ (u64{k.src_rank} << 40) ^ k.seq;
        cq.push(k.time, k.src_rank, k.seq, [&ran, stamp] { ran ^= stamp; });
        ref.push(k);
        want_ran ^= stamp;
      }
    }
    // Pop about half, so later buckets are refilled while partly drained.
    for (std::size_t n = ref.size() / 2; n > 0; --n) {
      const EventKey want = ref.top();
      ref.pop();
      QueuedEvent ev = cq.pop_min();
      ASSERT_EQ(ev.time, want.time);
      ASSERT_EQ(ev.src_rank, want.src_rank);
      ASSERT_EQ(ev.seq, want.seq);
      ev.fn();
    }
  }
  while (!ref.empty()) {
    const EventKey want = ref.top();
    ref.pop();
    QueuedEvent ev = cq.pop_min();
    ASSERT_EQ(ev.time, want.time);
    ASSERT_EQ(ev.src_rank, want.src_rank);
    ASSERT_EQ(ev.seq, want.seq);
    ev.fn();
  }
  EXPECT_TRUE(cq.empty());
  EXPECT_EQ(ran, want_ran);
}

TEST(CalendarQueue, RebaseOnBelowBasePush) {
  // Drain the wheel forward onto a far event, then push below the new
  // base -- the host-schedule pattern that forces a rebase.
  CalendarQueue cq;
  cq.push(QueuedEvent{10, 0, 0, [] {}});
  cq.push(QueuedEvent{100000, 0, 1, [] {}});
  EXPECT_EQ(cq.pop_min().time, 10u);
  EXPECT_EQ(cq.min_time(), 100000u);  // migrated: base is now far ahead
  EXPECT_TRUE(cq.push(QueuedEvent{50, 1, 0, [] {}}));
  EXPECT_EQ(cq.min_time(), 50u);
  EXPECT_EQ(cq.pop_min().time, 50u);
  EXPECT_EQ(cq.pop_min().time, 100000u);
  EXPECT_TRUE(cq.empty());
}

TEST(CalendarQueue, BelowWindowPushSpillsTheWheelTail) {
  // After popping t=0 the window starts at the minimum (100) and holds 200;
  // a host-style push at 50 pulls the window back to [50, 178), so 200
  // must move to the overflow heap and still pop in order.
  CalendarQueue cq;
  u64 ran = 0;
  for (const Cycle t : {Cycle{0}, Cycle{100}, Cycle{127}, Cycle{200}}) {
    cq.push(QueuedEvent{t, 0, t, [&ran, t] { ran += t; }});
  }
  EXPECT_EQ(cq.pop_min().time, 0u);
  EXPECT_TRUE(cq.push(QueuedEvent{50, 1, 0, [&ran] { ran += 50; }}));
  for (const Cycle want : {Cycle{50}, Cycle{100}, Cycle{127}, Cycle{200}}) {
    ASSERT_EQ(cq.min_time(), want);
    QueuedEvent ev = cq.pop_min();
    EXPECT_EQ(ev.time, want);
    ev.fn();
  }
  EXPECT_TRUE(cq.empty());
  EXPECT_EQ(ran, 50u + 100u + 127u + 200u);
}

TEST(CalendarQueue, PushReturnsTrueOnlyOnStrictlyNewMinimum) {
  CalendarQueue cq;
  EXPECT_TRUE(cq.push(QueuedEvent{20, 0, 0, [] {}}));   // empty -> true
  EXPECT_FALSE(cq.push(QueuedEvent{20, 0, 1, [] {}}));  // tie -> false
  EXPECT_FALSE(cq.push(QueuedEvent{30, 0, 2, [] {}}));
  EXPECT_TRUE(cq.push(QueuedEvent{19, 1, 0, [] {}}));
  EXPECT_EQ(cq.size(), 4u);
}

}  // namespace
