#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/rng.h"
#include "sim/parallel_engine.h"
#include "sim/stats.h"

namespace qcdoc::sim {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  ParallelEngine e;
  std::vector<int> order;
  e.schedule(30, [&] { order.push_back(3); });
  e.schedule(10, [&] { order.push_back(1); });
  e.schedule(20, [&] { order.push_back(2); });
  e.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, EqualTimestampsFireInScheduleOrder) {
  ParallelEngine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule(5, [&order, i] { order.push_back(i); });
  }
  e.run_until_idle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, EventsMayScheduleMoreEvents) {
  ParallelEngine e;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) e.schedule(10, chain);
  };
  e.schedule(10, chain);
  e.run_until_idle();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(e.now(), 50u);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  ParallelEngine e;
  int fired = 0;
  e.schedule(10, [&] { ++fired; });
  e.schedule(20, [&] { ++fired; });
  e.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 15u);
  e.run_until_idle();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilAdvancesTimeWithNoEvents) {
  ParallelEngine e;
  e.run_until(1000);
  EXPECT_EQ(e.now(), 1000u);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  ParallelEngine e;
  EXPECT_FALSE(e.step());
  e.schedule(1, [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, PendingEventsCount) {
  ParallelEngine e;
  e.schedule(1, [] {});
  e.schedule(2, [] {});
  EXPECT_EQ(e.pending_events(), 2u);
  e.run_until_idle();
  EXPECT_EQ(e.pending_events(), 0u);
}

// Contract: scheduling into the past is a model bug and must be rejected
// loudly, never silently reordered (it used to corrupt the queue order).
TEST(Engine, ScheduleAtRejectsThePast) {
  ParallelEngine e;
  e.schedule_at(100, [] {});
  e.run_until_idle();
  ASSERT_EQ(e.now(), 100u);
  EXPECT_THROW(e.schedule_at(99, [] {}), std::invalid_argument);
  // t == now() stays legal: zero-delay events are idiomatic in the model.
  e.schedule_at(100, [] {});
  EXPECT_EQ(e.pending_events(), 1u);
  e.run_until_idle();
}

TEST(Engine, ScheduleAtRejectsThePastFromInsideAnEvent) {
  ParallelEngine e;
  bool threw = false;
  e.schedule(50, [&] {
    try {
      e.schedule_at(10, [] {});
    } catch (const std::invalid_argument& ex) {
      threw = true;
      EXPECT_NE(std::string(ex.what()).find("past"), std::string::npos);
    }
  });
  e.run_until_idle();
  EXPECT_TRUE(threw);
  EXPECT_EQ(e.events_executed(), 1u);
}

TEST(Engine, OrderDigestDetectsDifferentSchedules) {
  ParallelEngine a, b, c;
  for (ParallelEngine* e : {&a, &b}) {
    e->schedule(10, [] {});
    e->schedule(20, [] {});
    e->run_until_idle();
  }
  c.schedule(10, [] {});
  c.schedule(21, [] {});
  c.run_until_idle();
  EXPECT_EQ(a.trace_digest(), b.trace_digest());
  EXPECT_NE(a.trace_digest(), c.trace_digest());
}

TEST(Engine, FnvFoldMatchesTheBytewiseFold) {
  // fnv1a folds a value's high zero bytes as one multiply; the digest must
  // equal the plain eight-step byte fold on every input.
  auto bytewise = [](u64 h, u64 v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ (v & 0xffu)) * detail::kFnvPrime;
      v >>= 8;
    }
    return h;
  };
  std::vector<u64> values = {0,          1,          0xff,       0x100,
                             u64{1} << 56, ~u64{0},   u64{1} << 63,
                             0x00ff00ff00ff00ffull,   0xff00000000000000ull};
  Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    // Random widths so every count of high zero bytes appears.
    values.push_back(rng.next_u64() >> (8 * rng.next_below(8)));
  }
  u64 h = detail::kFnvOffset;
  u64 ref = detail::kFnvOffset;
  for (const u64 v : values) {
    EXPECT_EQ(detail::fnv1a(detail::kFnvOffset, v),
              bytewise(detail::kFnvOffset, v))
        << std::hex << v;
    h = detail::fnv1a(h, v);
    ref = bytewise(ref, v);
  }
  EXPECT_EQ(h, ref);
}

TEST(Stats, AccumulatesAndSnapshots) {
  StatSet s;
  s.add("a");
  s.add("a", 4);
  s.add("b", 2);
  EXPECT_EQ(s.get("a"), 5u);
  EXPECT_EQ(s.get("b"), 2u);
  EXPECT_EQ(s.get("missing"), 0u);
  EXPECT_FALSE(s.has("missing"));
  const auto snap = s.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "a");
}

TEST(Stats, SetOverwritesAndClearResets) {
  StatSet s;
  s.add("x", 10);
  s.set("x", 3);
  EXPECT_EQ(s.get("x"), 3u);
  s.clear();
  EXPECT_FALSE(s.has("x"));
}

TEST(Stats, TotalAcrossSets) {
  StatSet a, b;
  a.add("x", 3);
  b.add("x", 4);
  EXPECT_EQ(StatSet::total({&a, &b}, "x"), 7u);
}

}  // namespace
}  // namespace qcdoc::sim
