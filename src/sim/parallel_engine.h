// The simulation engine: conservative parallel discrete-event execution
// over per-node calendar queues (see engine.h for the shared
// execution-order contract).  It is the only engine the machine runs on, at
// every thread count.
//
// Nodes of the 6-d torus are sharded across `threads` shards, each owning a
// contiguous block of per-node calendar queues (calendar_queue.h) and, past
// the first, a worker thread.  Execution proceeds in adaptive slices chosen
// from the pending-event picture at the global minimum time T:
//
//   - Host slice: the earliest pending event is a host event (rank 0).
//     The coordinator runs every host event at T inline, in exact key
//     order, with all node queues untouched -- host events never demote
//     node execution to serial windows; they only bound them.
//   - Parallel window: two or more shards have events in [T, end), where
//     end = min(T + lookahead, next host event).  Workers drain their own
//     shards' events concurrently with no synchronization, legal because
//     the model guarantees no cross-node effect sooner than L cycles (the
//     HSSL physics: a frame delivery costs a full serialization of at least
//     the 16-bit minimum frame plus the wire time of flight, so
//     L = min_frame_bits + wire_delay_cycles).
//   - Single-shard fast-forward: only one shard is occupied (an idle
//     machine with a lone scrubber, a single hot node -- and always at
//     threads == 1, where one shard holds every rank, host included).  The
//     coordinator runs that shard in exact key order with no barrier and
//     no outbox, as far as min(next host event, earliest foreign-shard
//     event) -- which coalesces what would otherwise be thousands of
//     18-cycle windows.
//
// Each shard keeps a lazy min-heap of (time, rank) head positions so
// finding its next event is O(log ranks-with-events) instead of a scan of
// every rank per window; stale entries are dropped when they fail to match
// the live queue head.  Cross-node schedules made inside a parallel window
// are buffered in per-worker outboxes and merged at the barrier; because
// every queue orders by the deterministic key, the merge order is
// irrelevant and the execution order is bit-identical at every thread
// count.
//
// The cross-node lookahead contract is enforced uniformly: a node event
// scheduling onto another node closer than L cycles throws, on every
// execution path, so model bugs cannot hide in serially-executed phases.
// Node-to-host schedules are exempt (the host queue serializes them
// exactly) except inside a parallel window, where they must clear the
// window end like any other cross-rank schedule.
#pragma once

#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "sim/calendar_queue.h"
#include "sim/engine.h"

namespace qcdoc::sim {

struct ParallelConfig {
  int threads = 1;     ///< shards: the caller runs one, a worker each other
  Cycle lookahead = 1; ///< window length; no cross-node effect sooner
  int num_nodes = 0;   ///< valid node affinities are [0, num_nodes)
};

class ParallelEngine final : public Engine {
 public:
  explicit ParallelEngine(ParallelConfig cfg = {});
  ~ParallelEngine() override;

  void schedule_at_on(Affinity dest, Cycle t, Action&& fn) override;
  bool step() override;
  Cycle run_until_idle() override;
  void run_until(Cycle t) override;
  void advance_to(Cycle t) override;
  bool drain(const ActiveCounter& counter) override;
  std::size_t pending_events() const override;
  u64 events_executed() const override;
  u64 trace_digest() const override;
  EngineReport report() const override;
  EngineClockState capture_clock() const override;
  void restore_clock(const EngineClockState& state) override;

  int threads() const { return cfg_.threads; }
  Cycle lookahead() const { return cfg_.lookahead; }

 private:
  static constexpr Cycle kNoEvent = CalendarQueue::kNoEvent;

  /// One rank's event queue plus its bookkeeping.  During a parallel window
  /// each RankQ is touched only by its owning worker; outside windows only
  /// the coordinator runs.
  struct RankQ {
    CalendarQueue q;
    u64 scheduled = 0;  ///< seq counter for events *sourced* by this rank
    u64 executed = 0;
    u64 digest = detail::kFnvOffset;
    Cycle last_exec = 0;  ///< monotonicity check: catches ordering bugs loudly
  };

  /// Shard-heap entry: the head position of one rank queue.  Entries are
  /// lazy: each is checked against the live queue head when it reaches the
  /// top and dropped if stale.  Ordered by (time, rank) only -- the
  /// within-rank tie-break lives in the calendar queue itself.
  struct HeadPos {
    Cycle time;
    u32 rank;
  };
  struct HeadPosAfter {
    bool operator()(const HeadPos& a, const HeadPos& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.rank > b.rank;  // host rank 0 first at equal times
    }
  };

  struct alignas(64) WorkerSlot {
    ParallelEngine* owner = nullptr;
    std::vector<std::pair<u32, QueuedEvent>> outbox;
    /// Lazy min-heap over this shard's rank-queue heads (std::push_heap /
    /// std::pop_heap with HeadPosAfter).  Workers touch only their own
    /// shard's heap inside a window; the coordinator owns all of them
    /// between windows.
    std::vector<HeadPos> heap;
    Cycle window_max = 0;  ///< latest event time executed this window
    u64 window_pushed = 0;    ///< schedules made by this worker this window
    u64 window_executed = 0;  ///< events run by this worker this window
    std::exception_ptr error;
  };

  /// Overwrite the top of a shard heap with `hp` and sift it down: one
  /// pass instead of a pop_heap + push_heap pair.
  static void replace_top(std::vector<HeadPos>& heap, HeadPos hp);
  void check_not_in_event() const;
  /// Cleanse every shard heap's top and return the earliest pending event
  /// time.  After it returns, every non-empty shard heap front is valid.
  Cycle global_min();
  Cycle shard_top(int w);
  void shard_push_entry(u32 rank, Cycle t);
  /// Run one adaptive slice starting at the global minimum (host slice,
  /// parallel window, or single-shard fast-forward).  `limit` is exclusive;
  /// returns false when nothing is pending below it.
  bool run_slice(Cycle limit, const ActiveCounter* stop);
  void run_host_slice(Cycle t, const ActiveCounter* stop);
  void run_shard_serial(int w, Cycle limit, const ActiveCounter* stop);
  void run_window_parallel(Cycle end);
  void process_shard(int w);
  void exec_event(u32 rank, QueuedEvent ev);
  void push_serial(u32 dest_rank, Cycle t, u32 src, u64 seq, Action&& fn);
  void worker_main(int w);

  ParallelConfig cfg_;
  std::vector<RankQ> ranks_;
  std::vector<u32> shard_begin_;  ///< shard w owns ranks [w, w+1) bounds
  std::vector<u32> rank_owner_;   ///< rank -> owning shard

  // Window state, written by the coordinator before releasing a generation.
  Cycle win_end_ = 0;

  // Single-shard fast-forward state: while a shard runs serially, foreign
  // pushes it makes tighten the execution bound live.
  int serial_shard_ = -1;
  Cycle serial_foreign_min_ = 0;

  std::vector<WorkerSlot> slots_;
  std::vector<std::thread> workers_;
  std::atomic<u64> go_gen_{0};
  std::atomic<int> done_count_{0};
  std::atomic<bool> exit_{false};

  u64 windows_parallel_ = 0;
  u64 windows_serial_ = 0;  ///< single-shard fast-forward slices
  u64 windows_host_ = 0;
  u64 cross_shard_events_ = 0;
  u64 pushed_total_ = 0;    ///< all schedules (slot counters folded in)
  u64 executed_total_ = 0;  ///< all executions (slot counters folded in)
  u64 parallel_window_events_ = 0;
  u64 peak_pending_ = 0;
  double barrier_stall_seconds_ = 0;
  std::array<u64, 16> barrier_hist_{};
  detail::ActionAllocStats alloc_base_ = detail::action_alloc_stats();
};

}  // namespace qcdoc::sim
