// Contract tests for the simulation engine: bit-identical order with the
// test-only reference engine (reference_engine.h) at 1, 2 and 4 threads,
// loud failure on lookahead violations, and the drain/step/advance
// semantics of engine.h's execution-order contract.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "machine/machine.h"
#include "reference_engine.h"
#include "sim/parallel_engine.h"

namespace qcdoc::sim {
namespace {

constexpr Cycle kLookahead = 20;

// A synthetic multi-node workload: every node keeps a private counter, each
// event re-arms itself on its own node (any delay is legal) and pokes the
// next node no sooner than the lookahead (the only legal cross-node delay,
// mirroring the HSSL's serialization + wire time).
struct Workload {
  Engine* e;
  int n;
  std::vector<u64> hits;  // per node; only that node's events touch it

  explicit Workload(Engine* engine, int nodes)
      : e(engine), n(nodes), hits(static_cast<std::size_t>(nodes), 0) {}

  void fire(int node, int depth) {
    hits[static_cast<std::size_t>(node)] += static_cast<u64>(depth) + 1;
    if (depth == 0) return;
    e->schedule(3 + static_cast<Cycle>(depth % 4),
                [this, node, depth] { fire(node, depth - 1); });
    const int next = (node + 1) % n;
    e->schedule_on(static_cast<Affinity>(next),
                   kLookahead + static_cast<Cycle>(depth % 3),
                   [this, next, depth] { fire(next, depth - 1); });
  }

  void seed_and_run() {
    for (int i = 0; i < n; ++i) {
      e->schedule_on(static_cast<Affinity>(i), static_cast<Cycle>(i % 5),
                     [this, i] { fire(i, 6); });
    }
    e->run_until_idle();
  }
};

struct RunResult {
  u64 digest;
  u64 events;
  Cycle end;
  std::vector<u64> hits;
};

RunResult run_workload(Engine& e, int nodes) {
  Workload w(&e, nodes);
  w.seed_and_run();
  return {e.trace_digest(), e.events_executed(), e.now(), w.hits};
}

TEST(ParallelEngine, BitIdenticalToSerialOnSyntheticWorkload) {
  ReferenceEngine oracle;
  const RunResult ref = run_workload(oracle, 8);
  ASSERT_GT(ref.events, 100u);

  for (const int threads : {1, 2, 4}) {
    ParallelEngine par(ParallelConfig{threads, kLookahead, 8});
    const RunResult got = run_workload(par, 8);
    EXPECT_EQ(got.digest, ref.digest) << threads << " threads";
    EXPECT_EQ(got.events, ref.events) << threads << " threads";
    EXPECT_EQ(got.end, ref.end) << threads << " threads";
    EXPECT_EQ(got.hits, ref.hits) << threads << " threads";
  }
}

TEST(ParallelEngine, StepByStepMatchesSerialEngine) {
  ReferenceEngine oracle;
  ParallelEngine par(ParallelConfig{2, kLookahead, 4});
  for (Engine* e : {static_cast<Engine*>(&oracle), static_cast<Engine*>(&par)}) {
    for (int i = 3; i >= 0; --i) {
      e->schedule_on(static_cast<Affinity>(i), static_cast<Cycle>(10 * i), [] {});
    }
  }
  // step() must execute exactly one event in global key order on any engine.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(par.step());
    EXPECT_TRUE(oracle.step());
    EXPECT_EQ(par.now(), oracle.now());
    EXPECT_EQ(par.trace_digest(), oracle.trace_digest());
  }
  EXPECT_FALSE(par.step());
  EXPECT_FALSE(oracle.step());
}

TEST(ParallelEngine, CrossNodeScheduleInsideLookaheadThrows) {
  ParallelEngine e(ParallelConfig{2, 10, 2});
  // Node 0 tries to poke node 1 after a single cycle -- faster than any
  // frame could physically arrive, and inside the current window.  The
  // engine must fail loudly rather than silently diverge from the key order.
  e.schedule_on(0, 0, [&e] { e.schedule_on(1, 1, [] {}); });
  EXPECT_THROW(e.run_until_idle(), std::logic_error);
}

TEST(ParallelEngine, AffinityOutOfRangeThrows) {
  ParallelEngine e(ParallelConfig{2, 10, 2});
  EXPECT_THROW(e.schedule_on(2, 0, [] {}), std::invalid_argument);
  EXPECT_THROW(e.schedule_on(17, 0, [] {}), std::invalid_argument);
  e.schedule_on(kHostAffinity, 0, [] {});  // host is always valid
  e.schedule_on(1, 0, [] {});
  e.run_until_idle();
  EXPECT_EQ(e.events_executed(), 2u);
}

TEST(ParallelEngine, ReentrantSteppingThrows) {
  ParallelEngine e(ParallelConfig{2, 10, 2});
  e.schedule_on(kHostAffinity, 0, [&e] { e.step(); });
  EXPECT_THROW(e.run_until_idle(), std::logic_error);
}

// Satellite contract: schedule_at into the past must be rejected with a
// clear error on every engine, instead of corrupting the event order.
TEST(EngineContract, ScheduleAtPastThrowsOnBothEngines) {
  ReferenceEngine oracle;
  ParallelEngine par(ParallelConfig{2, 10, 2});
  for (Engine* e : {static_cast<Engine*>(&oracle), static_cast<Engine*>(&par)}) {
    e->schedule_at(100, [] {});
    e->run_until_idle();
    ASSERT_EQ(e->now(), 100u);
    EXPECT_THROW(e->schedule_at(50, [] {}), std::invalid_argument);
    try {
      e->schedule_at(50, [] {});
      FAIL() << "no exception";
    } catch (const std::invalid_argument& ex) {
      EXPECT_NE(std::string(ex.what()).find("past"), std::string::npos);
      EXPECT_NE(std::string(ex.what()).find("t=50"), std::string::npos);
    }
    // t == now() is legal (zero-delay events are common in the SCU model).
    e->schedule_at(100, [] {});
    e->run_until_idle();
  }
}

TEST(EngineContract, DrainStopsTheClockAtTheZeroingEvent) {
  ReferenceEngine oracle;
  ParallelEngine par(ParallelConfig{2, 10, 2});
  for (Engine* e : {static_cast<Engine*>(&oracle), static_cast<Engine*>(&par)}) {
    ActiveCounter c;
    c.increment();
    e->schedule_on(0, 50, [&] { c.decrement(e->now()); });
    e->schedule_on(1, 80, [] {});  // must stay pending
    EXPECT_TRUE(e->drain(c));
    EXPECT_EQ(e->now(), 50u);
    EXPECT_EQ(c.last_zero_at(), 50u);
    EXPECT_EQ(e->pending_events(), 1u);
    e->run_until_idle();
  }
}

TEST(EngineContract, DrainReportsStallWhenQueueEmptiesFirst) {
  ReferenceEngine oracle;
  ParallelEngine par(ParallelConfig{2, 10, 2});
  for (Engine* e : {static_cast<Engine*>(&oracle), static_cast<Engine*>(&par)}) {
    ActiveCounter c;
    c.increment();
    e->schedule_on(0, 5, [] {});
    EXPECT_FALSE(e->drain(c));  // counter never reaches zero: a stall
  }
}

TEST(EngineContract, AdvanceToRefusesToSkipPendingEvents) {
  ReferenceEngine oracle;
  ParallelEngine par(ParallelConfig{2, 10, 2});
  for (Engine* e : {static_cast<Engine*>(&oracle), static_cast<Engine*>(&par)}) {
    e->schedule_at(10, [] {});
    EXPECT_THROW(e->advance_to(20), std::logic_error);
    e->run_until_idle();
    e->advance_to(200);
    EXPECT_EQ(e->now(), 200u);
  }
}

TEST(ParallelEngine, ReportCountsWindowsAndShards) {
  ParallelEngine e(ParallelConfig{2, kLookahead, 8});
  run_workload(e, 8);
  const EngineReport r = e.report();
  EXPECT_EQ(r.threads, 2);
  EXPECT_EQ(r.lookahead, kLookahead);
  EXPECT_GT(r.windows_parallel, 0u);
  EXPECT_GT(r.cross_shard_events, 0u);
  u64 total = 0;
  for (const u64 s : r.shard_events) total += s;
  EXPECT_EQ(total, r.events);
  EXPECT_EQ(r.events, e.events_executed());
}

TEST(ParallelEngine, ReportPopulatesBarrierAndActionPoolCounters) {
  ParallelEngine e(ParallelConfig{4, kLookahead, 8});
  run_workload(e, 8);
  const EngineReport r = e.report();
  ASSERT_GT(r.windows_parallel, 0u);
  // Every parallel window ends in exactly one barrier observation: a
  // measured coordinator wait in some bucket >= 1, or bucket 0 when the
  // workers finished before the coordinator even looked.
  u64 observations = 0;
  for (const u64 b : r.barrier_wait_hist) observations += b;
  EXPECT_EQ(observations, r.windows_parallel);
  EXPECT_GE(r.barrier_stall_seconds, 0.0);
  if (r.barrier_stall_seconds > 0.0) {
    EXPECT_GT(observations - r.barrier_wait_hist[0], 0u)
        << "stall time was accumulated but no wait bucket was hit";
  }
  EXPECT_GT(r.parallel_window_events, 0u);
  EXPECT_LE(r.parallel_window_events, r.events);
  EXPECT_GT(r.peak_pending_events, 0u);
  // Every capture in this workload fits EventFn's inline buffer: the engine
  // must not have carved a single action-pool heap block for it.
  EXPECT_EQ(r.action_pool_blocks, 0u);
  EXPECT_EQ(r.action_oversize_allocs, 0u);
}

// Adaptive-window satellite: when only one shard holds events, the engine
// must fast-forward that shard serially (no worker handoff, no barrier)
// instead of running degenerate one-shard "parallel" windows.
TEST(ParallelEngine, SingleShardBacklogFastForwardsSerially) {
  ReferenceEngine oracle;
  ParallelEngine par(ParallelConfig{4, kLookahead, 8});
  for (Engine* e : {static_cast<Engine*>(&oracle), static_cast<Engine*>(&par)}) {
    // A long self-rearming chain confined to node 2: every window sees
    // exactly one live shard.
    struct Chain {
      Engine* e;
      int left = 300;
      void fire() {
        if (--left > 0) e->schedule(7, [this] { fire(); });
      }
    };
    Chain c{e};
    e->schedule_on(2, 1, [&c] { c.fire(); });
    e->run_until_idle();
  }
  EXPECT_EQ(par.trace_digest(), oracle.trace_digest());
  EXPECT_EQ(par.events_executed(), oracle.events_executed());
  const EngineReport r = par.report();
  EXPECT_GT(r.windows_serial, 0u);
  EXPECT_EQ(r.windows_parallel, 0u)
      << "a one-shard backlog must never engage the worker barrier";
}

// Host events must ride in their own seam slices (windows_host) without
// demoting the surrounding node windows, and the mixed schedule must stay
// bit-identical to the reference engine at every thread count.
TEST(ParallelEngine, MixedHostNodeWorkloadBitIdenticalWithHostSlices) {
  struct Beat {
    Engine* e;
    u64 count = 0;
    void fire() {
      ++count;
      if (count < 40) e->schedule_on(kHostAffinity, 9, [this] { fire(); });
    }
  };
  auto run_mixed = [](Engine& e) {
    Workload w(&e, 8);
    Beat beat{&e};
    e.schedule_on(kHostAffinity, 0, [&beat] { beat.fire(); });
    w.seed_and_run();
    EXPECT_EQ(beat.count, 40u);
    return std::pair<u64, u64>{e.trace_digest(), e.events_executed()};
  };
  ReferenceEngine oracle;
  const auto ref = run_mixed(oracle);
  for (const int threads : {1, 2, 4}) {
    ParallelEngine par(ParallelConfig{threads, kLookahead, 8});
    const auto got = run_mixed(par);
    EXPECT_EQ(got, ref) << threads << " threads";
    const EngineReport r = par.report();
    EXPECT_GT(r.windows_host, 0u) << threads << " threads";
    if (threads > 1) {
      EXPECT_GT(r.windows_parallel, 0u)
          << "host seams must not demote node windows (" << threads
          << " threads)";
    }
  }
}

// --- Randomized differential test against the reference engine ------------

/// A seeded random schedule over `nodes` nodes plus the host.  Each event's
/// children are a pure function of its id and of its own rank's state, so
/// any engine that runs the same events in the same per-rank order builds
/// the same logs.  The mix covers node self-schedules (zero delay
/// included), cross-node schedules at the lookahead, node-to-host and
/// host-to-host schedules at the same timestamp, host-to-node schedules,
/// and far-future events that wait in the calendar's overflow heap.
struct Chaos {
  struct Exec {
    Cycle time;
    u64 id;
    friend bool operator==(const Exec&, const Exec&) = default;
  };

  Engine* e;
  u64 seed;
  /// Node-to-host schedules at delay 0.  Legal except inside a parallel
  /// window, so only 1-thread runs (which never open one) enable it.
  bool zero_delay_host;
  /// Also keep one log of every execution in global order: only for runs
  /// where events never execute concurrently.
  bool global_log;
  std::vector<u64> next_id;              // per rank, touched by that rank
  std::vector<int> budget;               // per rank, touched by that rank
  std::vector<std::vector<Exec>> log;    // per rank, touched by that rank
  std::vector<Exec> global;
  ActiveCounter tokens;

  Chaos(Engine* engine, int nodes, u64 s, bool zero_host, bool global_on)
      : e(engine), seed(s), zero_delay_host(zero_host), global_log(global_on),
        next_id(static_cast<std::size_t>(nodes) + 1, 0),
        budget(static_cast<std::size_t>(nodes) + 1, 300),
        log(static_cast<std::size_t>(nodes) + 1) {}

  int nodes() const { return static_cast<int>(log.size()) - 1; }

  /// Schedule a new event on `dest`; `src` is the rank scheduling it (the
  /// running event's, or the host's outside events).
  void spawn(u32 src, Affinity dest, Cycle delay, bool token = false) {
    const u64 id = (u64{src} << 40) | next_id[src]++;
    e->schedule_on(dest, delay,
                   [this, dest, id, token] { fire(dest, id, token); });
  }

  void fire(Affinity self, u64 id, bool token) {
    const u32 r = detail::affinity_rank(self);
    const Exec x{e->now(), id};
    log[r].push_back(x);
    if (global_log) global.push_back(x);
    if (token) tokens.decrement(e->now());
    Rng rng(seed ^ (id * 0x9e3779b97f4a7c15ull));
    const int kids = 1 + static_cast<int>(rng.next_below(2));
    for (int k = 0; k < kids && budget[r] > 0; ++k) {
      --budget[r];
      const u64 kind = rng.next_below(8);
      const Affinity other =
          static_cast<Affinity>(rng.next_below(static_cast<u64>(nodes())));
      const Cycle far = (Cycle{1} << 14) + rng.next_below(4096);
      if (r == 0) {  // host event
        if (kind < 3) {
          spawn(r, kHostAffinity, 0);  // same-time host-to-host
        } else if (kind < 7) {
          spawn(r, other, rng.next_below(50));
        } else {
          spawn(r, other, far);
        }
      } else if (kind < 3) {
        spawn(r, self, rng.next_below(40));
      } else if (kind < 5) {
        if (other != self) spawn(r, other, kLookahead + rng.next_below(60));
      } else if (kind < 7) {
        spawn(r, kHostAffinity,
              zero_delay_host ? 0 : kLookahead + rng.next_below(30));
      } else {
        spawn(r, rng.next_below(2) == 0 ? self : other, far);
      }
    }
  }

  void seed_events() {
    for (int i = 0; i < nodes(); ++i) {
      spawn(0, static_cast<Affinity>(i), static_cast<Cycle>(i % 5));
    }
    spawn(0, kHostAffinity, 0);
    spawn(0, kHostAffinity, 3);
    spawn(0, static_cast<Affinity>(nodes() - 1), Cycle{1} << 15);
  }

  /// Arm `n` token events that drain() waits for.
  void arm_tokens(int n) {
    for (int i = 0; i < n; ++i) {
      tokens.increment();
      spawn(0, static_cast<Affinity>(i % nodes()),
            100 + 37 * static_cast<Cycle>(i), /*token=*/true);
    }
  }
};

/// Drive `chaos` through every run entry point, calling `check(phase,
/// exact)` after each; `exact` is false when a phase may legitimately run
/// past the reference (a drain at more than one thread finishes its
/// window).
template <typename Check>
void drive_chaos(Chaos& c, Check&& check) {
  Engine& e = *c.e;
  c.seed_events();
  e.run_until(400);
  check("run_until(400)", true);
  for (int i = 0; i < 150; ++i) {
    const bool more = e.step();
    check(more ? "step" : "step (empty)", true);
  }
  e.run_until(e.now() + 3000);
  check("run_until(+3000)", true);
  c.arm_tokens(9);
  const bool drained = e.drain(c.tokens);
  check(drained ? "drain" : "drain (stalled)", false);
  e.run_until_idle();
  check("run_until_idle", true);
}

struct ChaosSnapshot {
  Cycle now;
  u64 events;
  u64 digest;
  std::size_t pending;
  friend bool operator==(const ChaosSnapshot&, const ChaosSnapshot&) =
      default;
};

ChaosSnapshot snapshot(const Engine& e) {
  return {e.now(), e.events_executed(), e.trace_digest(), e.pending_events()};
}

TEST(EngineOracle, RandomSchedulesMatchReferenceAtEveryThreadCount) {
  constexpr int kNodes = 6;
  for (const u64 seed : {1ull, 2ull, 3ull, 17ull, 99ull, 4242ull}) {
    for (const int threads : {1, 2, 4}) {
      const bool one = threads == 1;
      for (const bool zero_host : {false, true}) {
        if (zero_host && !one) continue;
        // Record the reference run phase by phase.
        ReferenceEngine oracle;
        Chaos ref(&oracle, kNodes, seed, zero_host, /*global_on=*/true);
        std::vector<ChaosSnapshot> ref_snaps;
        std::vector<std::vector<std::vector<Chaos::Exec>>> ref_logs;
        std::vector<std::vector<Chaos::Exec>> ref_global;
        drive_chaos(ref, [&](const char*, bool) {
          ref_snaps.push_back(snapshot(oracle));
          ref_logs.push_back(ref.log);
          ref_global.push_back(ref.global);
        });
        ASSERT_GT(oracle.events_executed(), 1000u) << "seed " << seed;

        ParallelEngine eng(ParallelConfig{threads, kLookahead, kNodes});
        Chaos got(&eng, kNodes, seed, zero_host, /*global_on=*/one);
        std::size_t phase = 0;
        drive_chaos(got, [&](const char* what, bool exact) {
          const ChaosSnapshot want = ref_snaps[phase];
          const ChaosSnapshot have = snapshot(eng);
          const std::string where = std::string(what) + " #" +
                                    std::to_string(phase) + ", seed " +
                                    std::to_string(seed) + ", " +
                                    std::to_string(threads) + " threads";
          if (exact || one) {
            EXPECT_EQ(have, want) << where;
            EXPECT_EQ(got.log, ref_logs[phase]) << where;
          } else {
            // The window holding the zero crossing runs to its end: up to
            // lookahead - 1 cycles of trailing events, never fewer events.
            EXPECT_GE(have.now, want.now) << where;
            EXPECT_LT(have.now, want.now + kLookahead) << where;
            EXPECT_GE(have.events, want.events) << where;
          }
          if (one) {
            EXPECT_EQ(got.global, ref_global[phase]) << where;
          }
          ++phase;
        });
        EXPECT_EQ(phase, ref_snaps.size());
      }
    }
  }
}

// End to end: a whole machine boot must produce the same event-order digest,
// clock and event count whether simulated serially or on worker threads.
TEST(ParallelEngine, MachineBootIsBitIdenticalAcrossThreadCounts) {
  struct Boot {
    u64 digest;
    u64 events;
    Cycle end;
  };
  auto boot = [](int threads) {
    machine::MachineConfig cfg;
    cfg.shape.extent = {2, 2, 1, 1, 1, 1};
    cfg.sim_threads = threads;
    machine::Machine m(cfg);
    m.power_on();
    return Boot{m.engine().trace_digest(), m.engine().events_executed(),
                m.engine().now()};
  };
  const Boot ref = boot(1);
  for (const int threads : {2, 4}) {
    const Boot got = boot(threads);
    EXPECT_EQ(got.digest, ref.digest) << threads << " threads";
    EXPECT_EQ(got.events, ref.events) << threads << " threads";
    EXPECT_EQ(got.end, ref.end) << threads << " threads";
  }
}

}  // namespace
}  // namespace qcdoc::sim
