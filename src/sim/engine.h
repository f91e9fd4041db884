// Discrete-event simulation engine.
//
// All timed behaviour in the machine model (serial-link bit timing, DMA
// engines, memory controllers, the 40 MHz global clock) is expressed as
// events on one engine.  The abstract `Engine` interface below has one
// production implementation, the sharded calendar-queue engine in
// parallel_engine.h, which every machine runs on at every thread count:
// `threads` only sets how many shards (worker threads) it splits the nodes
// across, and at one thread it never touches a barrier.  Tests keep a
// plain binary-heap reference engine (tests/reference_engine.h) as the
// oracle the production engine is diff-tested against.
//
// Determinism is a correctness requirement, mirroring the paper's demand
// that repeated runs of a physics evolution be identical in all bits
// (Section 4).  Every engine therefore executes events in one well-defined
// total order, keyed by
//
//     (time, destination rank, source rank, per-source sequence number)
//
// where the "rank" of an event is the node it acts on (the host controller
// is rank 0 and fires first at equal timestamps; node i is rank i+1).  The
// source rank is the rank that scheduled the event, and the sequence number
// counts schedules per source.  This key does not depend on how many
// threads run the simulation -- unlike a global schedule counter, it does
// not depend on the interleaving of independent nodes -- and it reduces to
// plain scheduling order for events scheduled from one context at one
// timestamp.
//
// Every engine additionally maintains an order digest (FNV-1a over the key
// tuples, folded per destination rank) so tests can assert that two runs --
// at different thread counts, or against the reference engine -- executed
// the exact same events at the exact same times.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "common/types.h"
#include "sim/event_fn.h"

namespace qcdoc::sim {

/// Which node's state an event acts on.  The engine shards work by it and
/// breaks timestamp ties with it.
using Affinity = u32;

/// Affinity of host-controller events (boot, Ethernet, fault injection,
/// partition-interrupt windows).  Host events execute before node events at
/// equal timestamps and only ever run on the coordinating thread.
inline constexpr Affinity kHostAffinity = 0xffffffffu;

namespace detail {

/// Total-order rank of an affinity: host first, then nodes in id order.
inline u32 affinity_rank(Affinity a) {
  return a == kHostAffinity ? 0u : a + 1u;
}
inline Affinity rank_affinity(u32 rank) {
  return rank == 0 ? kHostAffinity : rank - 1;
}

inline constexpr u64 kFnvOffset = 1469598103934665603ull;
inline constexpr u64 kFnvPrime = 1099511628211ull;

/// kFnvPrime^k (mod 2^64) for k = 0..8.
inline constexpr std::array<u64, 9> kFnvPrimePow = [] {
  std::array<u64, 9> p{};
  p[0] = 1;
  for (std::size_t k = 1; k < p.size(); ++k) p[k] = p[k - 1] * kFnvPrime;
  return p;
}();

/// Fold one 64-bit value into an FNV-1a digest, byte by byte, low byte
/// first.  XOR with a zero byte changes nothing, so the high zero bytes of
/// a small value fold as one multiply by a power of the prime: the same
/// digest with fewer dependent multiplies.
inline u64 fnv1a(u64 h, u64 v) {
  std::size_t n = 0;
  for (; v != 0; v >>= 8, ++n) h = (h ^ (v & 0xffu)) * kFnvPrime;
  return h * kFnvPrimePow[8 - n];
}

/// Per-thread execution context: which engine is running an event on this
/// thread, at what time, on behalf of which node.  Lets now() and schedule()
/// work unchanged from worker threads, and lets newly scheduled events
/// inherit the scheduling node as their source rank.
struct ExecCtx {
  const void* engine = nullptr;
  Cycle now = 0;
  Affinity affinity = kHostAffinity;
  /// Scheduling provenance of the running event, carried so diagnostics
  /// (the AFFSAN sanitizer above all) can say who created it: the affinity
  /// that scheduled it and its per-source sequence number.
  Affinity src = kHostAffinity;
  u64 seq = 0;
};

// Saved and restored around every event by ScopedExecCtx.  Inline so the
// hot now()/schedule() path reads it without a call.
// qcdoc-lint: allow(mutable-static) per-thread ctx, never crosses events
inline thread_local ExecCtx t_exec_ctx;

inline ExecCtx& exec_ctx() { return t_exec_ctx; }

/// Installs an event's context for the duration of its action and restores
/// the previous one even when the action throws, so a failed event can never
/// leave a dangling engine pointer in the thread-local context.
class ScopedExecCtx {
 public:
  ScopedExecCtx(const void* engine, Cycle now, Affinity affinity,
                Affinity src = kHostAffinity, u64 seq = 0)
      : saved_(exec_ctx()) {
    exec_ctx() = {engine, now, affinity, src, seq};
  }
  ~ScopedExecCtx() { exec_ctx() = saved_; }
  ScopedExecCtx(const ScopedExecCtx&) = delete;
  ScopedExecCtx& operator=(const ScopedExecCtx&) = delete;

 private:
  ExecCtx saved_;
};

}  // namespace detail

/// Shared count of in-flight activity (the mesh uses one for DMA transfers),
/// used to detect quiescence in O(1) instead of scanning every link after
/// every event.  Atomic so DMA completions on worker threads can decrement
/// it; `last_zero_at` records the event time of the decrement that reached
/// zero, which is where a drain stops the clock.
class ActiveCounter {
 public:
  void increment() { count_.fetch_add(1, std::memory_order_relaxed); }
  void decrement(Cycle at) {
    if (count_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      last_zero_at_.store(at, std::memory_order_release);
    }
  }
  long value() const { return count_.load(std::memory_order_acquire); }
  Cycle last_zero_at() const {
    return last_zero_at_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<long> count_{0};
  std::atomic<Cycle> last_zero_at_{0};
};

/// Execution statistics, for perf reports and the scaling bench.
struct EngineReport {
  int threads = 1;
  Cycle lookahead = 0;
  u64 events = 0;
  /// Of `events`, the keys folded into the order digest without being
  /// queued or dispatched: the repeats of a verified steady-state period
  /// (see ParallelEngine::splice_periods).
  u64 virtual_events = 0;
  u64 windows_parallel = 0;          ///< windows run with workers engaged
  u64 windows_serial = 0;            ///< single-shard slices, coordinator only
  u64 windows_host = 0;              ///< host-event slices at window seams
  u64 cross_shard_events = 0;        ///< events exchanged at window barriers
  u64 parallel_window_events = 0;    ///< events executed inside parallel windows
  u64 peak_pending_events = 0;       ///< high-water pending count (barrier-sampled)
  double barrier_stall_seconds = 0;  ///< coordinator wall time at barriers
  /// Wall time the coordinator waited per barrier, bucketed by log2
  /// microseconds: [0] no wait, [1] <2us, [2] <4us ... [15] >=16ms.
  std::array<u64, 16> barrier_wait_hist{};
  /// Action-storage heap traffic over this engine's lifetime (process-global
  /// counter deltas; see sim/event_fn.h).  Steady state must not grow
  /// pool_blocks or oversize_allocs -- the benches gate on exactly that.
  u64 action_pool_blocks = 0;    ///< fresh pool blocks carved for big actions
  u64 action_pool_reuses = 0;    ///< freelist recycles (no heap traffic)
  u64 action_oversize_allocs = 0;  ///< actions too big even for a pool block
  std::vector<u64> shard_events;   ///< events executed per shard
};

/// One rank's order-bookkeeping stream as captured into a snapshot.  Rank
/// numbering follows detail::affinity_rank (host 0, node i at i+1).
struct EngineStreamState {
  u32 rank = 0;
  u64 scheduled = 0;
  u64 executed = 0;
  u64 digest = detail::kFnvOffset;
};

/// The engine state that must survive a process restart for the order digest
/// to stay continuous: the clock plus every rank's stream.  Pending events
/// are deliberately NOT here -- snapshots are taken at quiescent points
/// (pending_events() == 0, or events owned by re-armable services), because
/// pooled EventFn closures capture raw pointers and cannot be serialized.
struct EngineClockState {
  Cycle now = 0;
  u64 events_executed = 0;
  std::vector<EngineStreamState> streams;
};

/// Abstract engine interface.  See the file comment for the execution-order
/// contract shared by all implementations.
class Engine {
 public:
  /// Event actions are pooled small-buffer callables, not std::function --
  /// a typical action's captures overflow std::function's inline buffer and
  /// would cost one heap allocation per scheduled event (see event_fn.h).
  using Action = EventFn;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  virtual ~Engine() = default;

  /// Current simulated time in CPU cycles (valid from any thread running an
  /// event of this engine; elsewhere it is the engine's global clock).
  Cycle now() const {
    const detail::ExecCtx& ctx = detail::exec_ctx();
    return ctx.engine == this ? ctx.now : now_;
  }

  /// Schedule `fn` to run `delay` cycles from now on the current node (the
  /// node whose event is executing, or the host outside event context).
  void schedule(Cycle delay, Action fn) {
    schedule_at_on(current_affinity(), now() + delay, std::move(fn));
  }

  /// Schedule `fn` at absolute time `t` on the current node.  Throws
  /// std::invalid_argument when `t < now()`.
  void schedule_at(Cycle t, Action fn) {
    schedule_at_on(current_affinity(), t, std::move(fn));
  }

  /// Schedule `fn` to run `delay` cycles from now on node `dest`.
  void schedule_on(Affinity dest, Cycle delay, Action fn) {
    schedule_at_on(dest, now() + delay, std::move(fn));
  }

  /// Schedule `fn` at absolute time `t` (>= now(), else throws
  /// std::invalid_argument) acting on node `dest`.  Takes the action by
  /// rvalue so it moves once, into its queue slot.
  virtual void schedule_at_on(Affinity dest, Cycle t, Action&& fn) = 0;

  /// Run the globally earliest pending event.  Returns false when no events
  /// remain.  Always executes exactly one event in total-key order, on the
  /// calling thread -- so predicate-bounded loops behave identically on
  /// every engine.
  virtual bool step() = 0;

  /// Step while `pred()` holds.  Returns false when the queue empties with
  /// the predicate still true (a stall).
  template <typename Pred>
  bool run_while(Pred&& pred) {
    while (pred()) {
      if (!step()) return false;
    }
    return true;
  }

  /// Run events until the queue drains.  Returns the final time.
  virtual Cycle run_until_idle() = 0;

  /// Run events with timestamp <= t, then set now() = t.
  virtual void run_until(Cycle t) = 0;

  /// Advance the clock with no event processing (used by the BSP runtime to
  /// account for pure-compute phases).  `t` must be >= now() and no pending
  /// event may be earlier than `t`.
  virtual void advance_to(Cycle t) = 0;

  /// Run until `counter` reads zero; now() ends at the time of the event
  /// that zeroed it (with more than one thread, at the latest event of the
  /// window that held it, under one lookahead later).  Returns false
  /// (stopping) if the queue empties first -- the signature of a stall.
  virtual bool drain(const ActiveCounter& counter) = 0;

  virtual std::size_t pending_events() const = 0;
  virtual u64 events_executed() const = 0;

  /// Order digest over every executed event's (time, dest, src, seq) key,
  /// folded per destination rank so it is independent of how independent
  /// nodes interleaved.  Equal digests => the engines executed the same
  /// events at the same times in the same per-node order.
  virtual u64 trace_digest() const = 0;

  virtual EngineReport report() const = 0;

  /// Capture now() plus every rank's (scheduled, executed, digest) stream.
  /// Restored via restore_clock() -- possibly at a different thread count --
  /// the digest continues bit-identically.
  virtual EngineClockState capture_clock() const = 0;

  /// Install captured clock state on a fresh engine.  Throws
  /// std::logic_error when events are pending (restore order: clock first,
  /// then services re-arm their standing events) or when a stream's rank
  /// does not exist on this engine (geometry mismatch).
  virtual void restore_clock(const EngineClockState& state) = 0;

 protected:
  Affinity current_affinity() const {
    const detail::ExecCtx& ctx = detail::exec_ctx();
    return ctx.engine == this ? ctx.affinity : kHostAffinity;
  }
  [[noreturn]] static void throw_past(Cycle t, Cycle now);

  Cycle now_ = 0;
};

/// A (engine, node) pair: the handle components hold so their schedules are
/// attributed to the right node.  Implicitly constructible from a bare
/// Engine* (host affinity) so host-side code and tests stay unchanged.
class EngineRef {
 public:
  using Action = Engine::Action;

  EngineRef() = default;
  EngineRef(Engine* engine) : engine_(engine) {}  // NOLINT: implicit, host
  EngineRef(Engine* engine, Affinity affinity)
      : engine_(engine), affinity_(affinity) {}

  Engine* get() const { return engine_; }
  Affinity affinity() const { return affinity_; }
  void set_affinity(Affinity a) { affinity_ = a; }

  Cycle now() const { return engine_->now(); }
  void schedule(Cycle delay, Action fn) const {
    engine_->schedule_at_on(affinity_, engine_->now() + delay, std::move(fn));
  }
  void schedule_at(Cycle t, Action fn) const {
    engine_->schedule_at_on(affinity_, t, std::move(fn));
  }

 private:
  Engine* engine_ = nullptr;
  Affinity affinity_ = kHostAffinity;
};

/// Worker-thread count from QCDOC_SIM_THREADS (default 1, clamped to
/// [1, 256]); the knob every bench and example routes through.
int threads_from_env();

}  // namespace qcdoc::sim
