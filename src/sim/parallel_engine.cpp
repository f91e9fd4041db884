#include "sim/parallel_engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <utility>

namespace qcdoc::sim {

namespace {
/// Set while a thread is executing inside a parallel window of some engine;
/// routes that thread's schedules to its private outbox.  Written on window
/// entry, cleared on exit; the window barriers order every access, so no
/// state leaks across runs.
// qcdoc-lint: allow(mutable-static) window-scoped worker routing, see above
thread_local ParallelEngine* t_window_engine = nullptr;
// qcdoc-lint: allow(mutable-static) window-scoped worker routing, see above
thread_local void* t_slot = nullptr;
}  // namespace

ParallelEngine::ParallelEngine(ParallelConfig cfg) : cfg_(cfg) {
  if (cfg_.threads < 1) cfg_.threads = 1;
  if (cfg_.lookahead < 1) {
    throw std::invalid_argument("ParallelEngine: lookahead must be >= 1");
  }
  if (cfg_.num_nodes < 0) {
    throw std::invalid_argument("ParallelEngine: negative node count");
  }
  const u32 num_ranks = static_cast<u32>(cfg_.num_nodes) + 1;  // + host
  ranks_.resize(num_ranks);
  if (cfg_.threads > static_cast<int>(num_ranks)) {
    cfg_.threads = static_cast<int>(num_ranks);
  }
  shard_begin_.resize(static_cast<std::size_t>(cfg_.threads) + 1);
  for (int w = 0; w <= cfg_.threads; ++w) {
    shard_begin_[static_cast<std::size_t>(w)] =
        static_cast<u32>(static_cast<u64>(num_ranks) * static_cast<u64>(w) /
                         static_cast<u64>(cfg_.threads));
  }
  rank_owner_.resize(num_ranks);
  for (int w = 0; w < cfg_.threads; ++w) {
    for (u32 r = shard_begin_[static_cast<std::size_t>(w)];
         r < shard_begin_[static_cast<std::size_t>(w) + 1]; ++r) {
      rank_owner_[r] = static_cast<u32>(w);
    }
  }
  slots_.resize(static_cast<std::size_t>(cfg_.threads));
  for (auto& s : slots_) s.owner = this;
  workers_.reserve(static_cast<std::size_t>(cfg_.threads - 1));
  for (int w = 1; w < cfg_.threads; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

ParallelEngine::~ParallelEngine() {
  exit_.store(true, std::memory_order_relaxed);
  go_gen_.fetch_add(1, std::memory_order_release);
  go_gen_.notify_all();
  for (auto& t : workers_) t.join();
}

void ParallelEngine::worker_main(int w) {
  u64 seen = 0;
  for (;;) {
    u64 g = go_gen_.load(std::memory_order_acquire);
    while (g == seen) {
      go_gen_.wait(seen, std::memory_order_acquire);
      g = go_gen_.load(std::memory_order_acquire);
    }
    seen = g;
    if (exit_.load(std::memory_order_relaxed)) return;
    process_shard(w);
    done_count_.fetch_add(1, std::memory_order_release);
    done_count_.notify_one();
  }
}

void ParallelEngine::check_not_in_event() const {
  if (detail::exec_ctx().engine == this) {
    throw std::logic_error(
        "ParallelEngine: nested run call from inside an event");
  }
}

void ParallelEngine::replace_top(std::vector<HeadPos>& heap, HeadPos hp) {
  const std::size_t n = heap.size();
  std::size_t i = 0;
  for (;;) {
    std::size_t c = 2 * i + 1;
    if (c >= n) break;
    if (c + 1 < n && HeadPosAfter{}(heap[c], heap[c + 1])) ++c;
    if (!HeadPosAfter{}(hp, heap[c])) break;
    heap[i] = heap[c];
    i = c;
  }
  heap[i] = hp;
}

Cycle ParallelEngine::shard_top(int w) {
  auto& heap = slots_[static_cast<std::size_t>(w)].heap;
  while (!heap.empty()) {
    const HeadPos hp = heap.front();
    if (ranks_[hp.rank].q.min_time() == hp.time) return hp.time;
    std::pop_heap(heap.begin(), heap.end(), HeadPosAfter{});
    heap.pop_back();  // stale: that head was executed or displaced
  }
  return kNoEvent;
}

Cycle ParallelEngine::global_min() {
  Cycle m = kNoEvent;
  for (int w = 0; w < cfg_.threads; ++w) {
    const Cycle t = shard_top(w);
    if (t < m) m = t;
  }
  return m;
}

void ParallelEngine::shard_push_entry(u32 rank, Cycle t) {
  auto& heap = slots_[rank_owner_[rank]].heap;
  heap.push_back(HeadPos{t, rank});
  std::push_heap(heap.begin(), heap.end(), HeadPosAfter{});
}

void ParallelEngine::schedule_at_on(Affinity dest, Cycle t, Action&& fn) {
  const u32 dest_rank = detail::affinity_rank(dest);
  if (dest_rank >= ranks_.size()) {
    throw std::invalid_argument(
        "Engine::schedule_at_on: affinity " + std::to_string(dest) +
        " out of range (machine has " + std::to_string(ranks_.size() - 1) +
        " nodes)");
  }
  const Cycle current = now();
  if (t < current) throw_past(t, current);
  const u32 src = detail::affinity_rank(current_affinity());
  if (src != 0 && dest_rank != src && dest_rank != 0 &&
      t < current + cfg_.lookahead) {
    // Uniform lookahead enforcement: a node reaching into another node
    // sooner than the HSSL physics allows is a model bug, and must fail on
    // every execution path, not only when it happens to land in a parallel
    // window.  Node-to-host schedules are exempt: the host queue serializes
    // them exactly (see the file comment in parallel_engine.h).
    throw std::logic_error(
        "ParallelEngine: cross-node event violates the lookahead window "
        "(t=" + std::to_string(t) + " < " + std::to_string(current) + " + " +
        std::to_string(cfg_.lookahead) + ")");
  }
  const u64 seq = ranks_[src].scheduled++;
  if (t_window_engine == this) {
    // Inside a parallel window: the seq counter of `src` belongs to the
    // executing worker, as does the destination queue iff it is our own
    // rank.  Everything else must clear the window and goes through the
    // outbox -- including host-bound events, which otherwise could land
    // behind node events this window already executed.
    auto* slot = static_cast<WorkerSlot*>(t_slot);
    ++slot->window_pushed;
    if (dest_rank == src) {
      ranks_[dest_rank].q.push(t, src, seq, std::move(fn));
      return;
    }
    if (t < win_end_) {
      throw std::logic_error(
          "ParallelEngine: cross-shard event inside a parallel window "
          "(t=" + std::to_string(t) + " < window end " +
          std::to_string(win_end_) + ")");
    }
    slot->outbox.emplace_back(dest_rank,
                              QueuedEvent{t, src, seq, std::move(fn)});
    return;
  }
  ++pushed_total_;
  push_serial(dest_rank, t, src, seq, std::move(fn));
}

void ParallelEngine::push_serial(u32 dest_rank, Cycle t, u32 src, u64 seq,
                                 Action&& fn) {
  if (ranks_[dest_rank].q.push(t, src, seq, std::move(fn))) {
    // The event became its rank's new head: cover it with a shard-heap
    // entry, and -- when a single-shard fast-forward is running -- tighten
    // the foreign-event bound it must respect.
    shard_push_entry(dest_rank, t);
    if (serial_shard_ >= 0 &&
        rank_owner_[dest_rank] != static_cast<u32>(serial_shard_) &&
        t < serial_foreign_min_) {
      serial_foreign_min_ = t;
    }
  }
}

void ParallelEngine::exec_event(u32 rank, QueuedEvent ev) {
  RankQ& rq = ranks_[rank];
  if (ev.time < rq.last_exec) {
    throw std::logic_error(
        "ParallelEngine: event order violation on rank " +
        std::to_string(rank) + " (t=" + std::to_string(ev.time) +
        " after t=" + std::to_string(rq.last_exec) + ")");
  }
  rq.last_exec = ev.time;
  rq.digest = detail::fnv1a(rq.digest, ev.time);
  rq.digest = detail::fnv1a(rq.digest, (u64{rank} << 32) | ev.src_rank);
  rq.digest = detail::fnv1a(rq.digest, ev.seq);
  ++rq.executed;
  if (record_ != nullptr) {
    (*record_)[rank].push_back(EventKey{ev.time, ev.src_rank, ev.seq});
  }
  if (t_window_engine == this) {
    ++static_cast<WorkerSlot*>(t_slot)->window_executed;
  } else {
    ++executed_total_;
  }
  // The caller's slice holds a ScopedExecCtx, so each event only
  // overwrites the context and the slice restores it once at the end.
  detail::exec_ctx() = {this, ev.time, detail::rank_affinity(rank),
                        detail::rank_affinity(ev.src_rank), ev.seq};
  ev.fn();
}

bool ParallelEngine::step() {
  check_not_in_event();
  // The globally next event is the head of the rank at the smallest
  // (time, rank) across the shard heaps; its calendar queue settles the
  // (src, seq) tie-break.  The heap entry stays: it is still live if the
  // rank has more events at this time, and dropped lazily if not.
  int best = -1;
  HeadPos head{kNoEvent, 0};
  for (int w = 0; w < cfg_.threads; ++w) {
    if (shard_top(w) == kNoEvent) continue;
    const HeadPos hp = slots_[static_cast<std::size_t>(w)].heap.front();
    if (best < 0 || HeadPosAfter{}(head, hp)) {
      best = w;
      head = hp;
    }
  }
  if (best < 0) return false;
  RankQ& rq = ranks_[head.rank];
  QueuedEvent ev = rq.q.pop_min();
  if (ev.time > now_) now_ = ev.time;
  {
    const detail::ScopedExecCtx slice(this, now_, kHostAffinity);
    exec_event(head.rank, std::move(ev));
  }
  const Cycle m = rq.q.min_time();
  if (m != kNoEvent && m != head.time) shard_push_entry(head.rank, m);
  return true;
}

bool ParallelEngine::run_slice(Cycle limit, const ActiveCounter* stop) {
  const Cycle T = global_min();
  if (T == kNoEvent || T >= limit) return false;
  const Cycle host_head = ranks_[0].q.min_time();
  if (host_head == T) {
    run_host_slice(T, stop);
    return true;
  }
  Cycle end = T + cfg_.lookahead;
  if (limit < end) end = limit;
  if (host_head < end) end = host_head;
  // Count shards with work in [T, end); global_min() just cleansed every
  // shard heap, so the fronts are live heads.
  int occupied = 0;
  int only = 0;
  for (int w = 0; w < cfg_.threads; ++w) {
    const auto& heap = slots_[static_cast<std::size_t>(w)].heap;
    if (!heap.empty() && heap.front().time < end) {
      ++occupied;
      only = w;
    }
  }
  if (occupied >= 2) {
    run_window_parallel(end);
  } else {
    run_shard_serial(only, limit, stop);
  }
  return true;
}

void ParallelEngine::run_host_slice(Cycle t, const ActiveCounter* stop) {
  ++windows_host_;
  RankQ& host = ranks_[0];
  {
    const detail::ScopedExecCtx slice(this, now_, kHostAffinity);
    while (host.q.min_time() == t) {
      if (stop != nullptr && stop->value() == 0) break;
      if (t > now_) now_ = t;
      exec_event(0, host.q.pop_min());
    }
  }
  const Cycle m = host.q.min_time();
  if (m != kNoEvent && m != t) shard_push_entry(0, m);
}

void ParallelEngine::run_shard_serial(int w, Cycle limit,
                                      const ActiveCounter* stop) {
  ++windows_serial_;
  auto& heap = slots_[static_cast<std::size_t>(w)].heap;
  // Earliest pending event on any foreign shard.  The fronts are live
  // (global_min() cleansed them) and while this shard runs alone only its
  // own pushes can add foreign events, which push_serial folds in below.
  Cycle fmin = kNoEvent;
  for (int v = 0; v < cfg_.threads; ++v) {
    if (v == w) continue;
    const auto& h = slots_[static_cast<std::size_t>(v)].heap;
    if (!h.empty() && h.front().time < fmin) fmin = h.front().time;
  }
  serial_shard_ = w;
  serial_foreign_min_ = fmin;
  const detail::ScopedExecCtx slice(this, now_, kHostAffinity);
  bool stopped = false;
  while (!stopped) {
    if (stop != nullptr && stop->value() == 0) break;
    const Cycle top = shard_top(w);
    if (top == kNoEvent) break;
    // Any pending foreign event bounds us exactly: when it runs it may
    // schedule a host event at its own timestamp (node-to-host schedules
    // have no lookahead), and host events order before everything at or
    // after their time.  A pending host event bounds us exactly too.
    Cycle bound = limit;
    if (serial_foreign_min_ < bound) bound = serial_foreign_min_;
    if (w != 0 && ranks_[0].q.min_time() < bound) {
      bound = ranks_[0].q.min_time();
    }
    if (top >= bound) break;
    // The rank's entry stays on top while its events run and is replaced
    // in place afterwards.
    const u32 r = heap.front().rank;
    RankQ& rq = ranks_[r];
    while (rq.q.min_time() == top) {
      if (top > now_) now_ = top;
      exec_event(r, rq.q.pop_min());
      if (stop != nullptr && stop->value() == 0) {
        stopped = true;
        break;
      }
      // A same-time schedule onto the host must run before this rank's
      // remaining events at `top` (rank 0 orders first).  Fall back to the
      // heap, which now holds the host's entry (w == 0), or return to the
      // slice driver (w != 0).
      if (r != 0 && ranks_[0].q.min_time() == top) break;
    }
    const Cycle m = rq.q.min_time();
    if (heap.front().time == top && heap.front().rank == r) {
      if (m != kNoEvent) {
        replace_top(heap, HeadPos{m, r});
      } else {
        std::pop_heap(heap.begin(), heap.end(), HeadPosAfter{});
        heap.pop_back();
      }
    } else if (m != kNoEvent && m != top) {
      // An event run here pushed an entry above ours (a same-time host
      // event's, say).  Ours is stale unless the rank still has events at
      // `top`; cover the rank's new head.
      shard_push_entry(r, m);
    }
  }
  serial_shard_ = -1;
}

void ParallelEngine::run_window_parallel(Cycle end) {
  ++windows_parallel_;
  win_end_ = end;
  done_count_.store(0, std::memory_order_relaxed);
  go_gen_.fetch_add(1, std::memory_order_release);
  go_gen_.notify_all();
  process_shard(0);

  const int need = cfg_.threads - 1;
  int done = done_count_.load(std::memory_order_acquire);
  if (done < need) {
    // qcdoc-lint: allow(wall-clock) coordinator-stall perf accounting only
    const auto wait_start = std::chrono::steady_clock::now();
    // Brief spin: windows are short, so the workers usually finish within a
    // few microseconds of the coordinator.
    for (int i = 0; i < 4096 && done < need; ++i) {
      done = done_count_.load(std::memory_order_acquire);
    }
    while (done < need) {
      done_count_.wait(done, std::memory_order_acquire);
      done = done_count_.load(std::memory_order_acquire);
    }
    const double stall =
        // qcdoc-lint: allow(wall-clock) perf accounting only, as above.
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wait_start)
            .count();
    barrier_stall_seconds_ += stall;
    std::size_t bucket = 1;  // waited, sub-microsecond
    if (stall * 1e6 >= 1.0) {
      const u64 us = static_cast<u64>(stall * 1e6);
      bucket = std::min<std::size_t>(
          1 + static_cast<std::size_t>(std::bit_width(us)),
          barrier_hist_.size() - 1);
    }
    ++barrier_hist_[bucket];
  } else {
    ++barrier_hist_[0];  // workers beat the coordinator: no wait at all
  }

  for (WorkerSlot& slot : slots_) {
    if (slot.error) {
      const std::exception_ptr err = slot.error;
      slot.error = nullptr;
      std::rethrow_exception(err);
    }
  }
  Cycle latest = now_;
  for (WorkerSlot& slot : slots_) {
    cross_shard_events_ += slot.outbox.size();
    for (auto& [dest, ev] : slot.outbox) {
      const Cycle t = ev.time;
      if (ranks_[dest].q.push(std::move(ev))) shard_push_entry(dest, t);
    }
    slot.outbox.clear();
    if (slot.window_max > latest) latest = slot.window_max;
    pushed_total_ += slot.window_pushed;
    executed_total_ += slot.window_executed;
    parallel_window_events_ += slot.window_executed;
  }
  now_ = latest;
  const u64 pending = pushed_total_ - executed_total_;
  if (pending > peak_pending_) peak_pending_ = pending;
}

void ParallelEngine::process_shard(int w) {
  WorkerSlot& slot = slots_[static_cast<std::size_t>(w)];
  t_window_engine = this;
  t_slot = &slot;
  slot.window_max = 0;
  slot.window_pushed = 0;
  slot.window_executed = 0;
  try {
    const detail::ScopedExecCtx slice(this, win_end_, kHostAffinity);
    auto& heap = slot.heap;
    for (;;) {
      // Cleanse the heap top down to a live head inside the window.
      Cycle top = kNoEvent;
      while (!heap.empty()) {
        const HeadPos hp = heap.front();
        if (ranks_[hp.rank].q.min_time() == hp.time) {
          top = hp.time;
          break;
        }
        std::pop_heap(heap.begin(), heap.end(), HeadPosAfter{});
        heap.pop_back();
      }
      if (top >= win_end_) break;  // includes empty (kNoEvent)
      // Nothing else touches this heap inside the window (own-rank
      // schedules go straight to the queue), so the rank's entry stays on
      // top while it runs and is replaced in place.
      const u32 r = heap.front().rank;
      RankQ& rq = ranks_[r];
      Cycle m;
      while ((m = rq.q.min_time()) < win_end_) {
        exec_event(r, rq.q.pop_min());
      }
      if (rq.last_exec > slot.window_max) slot.window_max = rq.last_exec;
      if (m != kNoEvent) {
        replace_top(heap, HeadPos{m, r});
      } else {
        std::pop_heap(heap.begin(), heap.end(), HeadPosAfter{});
        heap.pop_back();
      }
    }
  } catch (...) {
    slot.error = std::current_exception();
  }
  t_window_engine = nullptr;
  t_slot = nullptr;
}

Cycle ParallelEngine::run_until_idle() {
  check_not_in_event();
  while (run_slice(kNoEvent, nullptr)) {
  }
  return now_;
}

void ParallelEngine::run_until(Cycle t) {
  check_not_in_event();
  const Cycle limit = t + 1 == 0 ? kNoEvent : t + 1;
  while (run_slice(limit, nullptr)) {
  }
  if (t > now_) now_ = t;
}

void ParallelEngine::advance_to(Cycle t) {
  check_not_in_event();
  if (global_min() < t) {
    throw std::logic_error("Engine::advance_to would skip pending events");
  }
  if (t > now_) now_ = t;
}

bool ParallelEngine::drain(const ActiveCounter& counter) {
  return drain_before(counter, kNoEvent) == DrainStop::kDrained;
}

ParallelEngine::DrainStop ParallelEngine::drain_before(
    const ActiveCounter& counter, Cycle limit) {
  check_not_in_event();
  while (counter.value() != 0) {
    if (!run_slice(limit, &counter)) {
      return global_min() == kNoEvent ? DrainStop::kStalled
                                      : DrainStop::kLimit;
    }
  }
  // A single-shard slice stops on the exact event that zeroed the counter,
  // so the clock lands on the zero crossing.  A parallel window cannot stop
  // mid-window: it runs its trailing traffic (acks, landings already
  // committed) to the end, and the clock stays on its latest event, less
  // than one lookahead past the crossing.
  now_ = std::max(now_, counter.last_zero_at());
  return DrainStop::kDrained;
}

std::vector<u64> ParallelEngine::schedule_counts() const {
  std::vector<u64> out(ranks_.size());
  for (std::size_t r = 0; r < ranks_.size(); ++r) out[r] = ranks_[r].scheduled;
  return out;
}

void ParallelEngine::pending_signature(Cycle b, Cycle horizon,
                                       std::vector<u64>& sig,
                                       std::vector<FarEvent>& far) const {
  struct Near {
    EventKey key;
    const void* kind;
  };
  std::vector<Near> near;
  for (u32 r = 0; r < ranks_.size(); ++r) {
    const CalendarQueue& q = ranks_[r].q;
    if (q.empty()) continue;
    near.clear();
    q.for_each([&](Cycle t, u32 src, u64 seq, const EventFn& fn) {
      if (t < b + horizon) {
        near.push_back(Near{EventKey{t, src, seq}, fn.kind()});
      } else {
        far.push_back(FarEvent{EventKey{t, src, seq}, r});
      }
    });
    if (near.empty()) continue;
    std::sort(near.begin(), near.end(),
              [](const Near& x, const Near& y) { return x.key < y.key; });
    sig.push_back(r);
    sig.push_back(near.size());
    for (const Near& n : near) {
      sig.push_back(n.key.time - b);
      sig.push_back(n.key.src_rank);
      sig.push_back(n.key.seq - ranks_[n.key.src_rank].scheduled);
      sig.push_back(reinterpret_cast<std::uintptr_t>(n.kind));
    }
  }
}

void ParallelEngine::splice_periods(const PeriodTemplate& tmpl, Cycle b,
                                    u64 n) {
  check_not_in_event();
  if (cfg_.threads != 1 || tmpl.keys.size() != ranks_.size() ||
      tmpl.schedules.size() != ranks_.size()) {
    throw std::logic_error("ParallelEngine::splice_periods: bad template");
  }
  const std::size_t num = ranks_.size();
  const Cycle period = tmpl.period;
  const std::vector<u64>& per = tmpl.schedules;
  std::vector<u32> active;
  std::size_t longest = 0;
  std::vector<u64> h(num);
  for (u32 r = 0; r < num; ++r) {
    if (!tmpl.keys[r].empty()) active.push_back(r);
    longest = std::max(longest, tmpl.keys[r].size());
    h[r] = ranks_[r].digest;
  }

  // Fold exactly the keys the per-event path would execute.  Every rank's
  // digest is its own chain of dependent multiplies, so the ranks advance
  // in lockstep, one key each, and their chains overlap.
  std::vector<u64> seq0(num);
  for (u64 j = 0; j < n; ++j) {
    const Cycle t0 = b + j * period;
    for (u32 s = 0; s < num; ++s) seq0[s] = ranks_[s].scheduled + j * per[s];
    for (std::size_t i = 0; i < longest; ++i) {
      for (const u32 r : active) {
        const std::vector<EventKey>& ks = tmpl.keys[r];
        if (i >= ks.size()) continue;
        const EventKey& k = ks[i];
        u64 x = detail::fnv1a(h[r], t0 + k.time);
        x = detail::fnv1a(x, (u64{r} << 32) | k.src_rank);
        h[r] = detail::fnv1a(x, seq0[k.src_rank] + k.seq);
      }
    }
  }

  const Cycle last_period = b + (n - 1) * period;
  for (const u32 r : active) {
    RankQ& rq = ranks_[r];
    const u64 folded = n * tmpl.keys[r].size();
    rq.digest = h[r];
    rq.executed += folded;
    rq.last_exec = last_period + tmpl.keys[r].back().time;
    now_ = std::max(now_, rq.last_exec);
    executed_total_ += folded;
    virtual_events_ += folded;
  }
  // The pending events of the periodic state move n periods on, keyed as
  // the per-event path would have scheduled them; the rest stay.
  std::vector<QueuedEvent> pending;
  for (u32 r = 0; r < num; ++r) {
    pending.clear();
    while (!ranks_[r].q.empty()) pending.push_back(ranks_[r].q.pop_min());
    for (QueuedEvent& ev : pending) {
      if (ev.time < b + period) {
        ev.time += n * period;
        ev.seq += n * per[ev.src_rank];
      }
    }
    std::sort(pending.begin(), pending.end(),
              [](const QueuedEvent& x, const QueuedEvent& y) {
                return EventKey{x.time, x.src_rank, x.seq} <
                       EventKey{y.time, y.src_rank, y.seq};
              });
    for (QueuedEvent& ev : pending) ranks_[r].q.push(std::move(ev));
  }
  for (u32 r = 0; r < num; ++r) {
    ranks_[r].scheduled += n * per[r];
    pushed_total_ += n * per[r];
  }
  for (WorkerSlot& slot : slots_) slot.heap.clear();
  for (u32 r = 0; r < num; ++r) {
    if (!ranks_[r].q.empty()) shard_push_entry(r, ranks_[r].q.min_time());
  }
}

std::size_t ParallelEngine::pending_events() const {
  std::size_t n = 0;
  for (const RankQ& rq : ranks_) n += rq.q.size();
  return n;
}

u64 ParallelEngine::events_executed() const {
  u64 n = 0;
  for (const RankQ& rq : ranks_) n += rq.executed;
  return n;
}

u64 ParallelEngine::trace_digest() const {
  u64 h = detail::kFnvOffset;
  for (u32 r = 0; r < ranks_.size(); ++r) {
    if (ranks_[r].executed == 0) continue;
    h = detail::fnv1a(h, r);
    h = detail::fnv1a(h, ranks_[r].executed);
    h = detail::fnv1a(h, ranks_[r].digest);
  }
  return h;
}

EngineClockState ParallelEngine::capture_clock() const {
  EngineClockState st;
  st.now = now_;
  st.events_executed = executed_total_;
  for (u32 r = 0; r < ranks_.size(); ++r) {
    const RankQ& rq = ranks_[r];
    if (rq.scheduled == 0 && rq.executed == 0) continue;
    st.streams.push_back({r, rq.scheduled, rq.executed, rq.digest});
  }
  return st;
}

void ParallelEngine::restore_clock(const EngineClockState& state) {
  if (pending_events() != 0) {
    throw std::logic_error("ParallelEngine::restore_clock with pending events");
  }
  now_ = state.now;
  executed_total_ = state.events_executed;
  pushed_total_ = 0;
  for (const EngineStreamState& s : state.streams) {
    if (s.rank >= ranks_.size()) {
      throw std::logic_error(
          "ParallelEngine::restore_clock: stream rank " +
          std::to_string(s.rank) + " outside this machine's " +
          std::to_string(ranks_.size()) + " ranks (geometry mismatch)");
    }
    RankQ& rq = ranks_[s.rank];
    rq.scheduled = s.scheduled;
    rq.executed = s.executed;
    rq.digest = s.digest;
    // Monotonicity floor: nothing restored may execute before the snapshot
    // time.
    rq.last_exec = state.now;
    pushed_total_ += s.scheduled;
  }
}

EngineReport ParallelEngine::report() const {
  EngineReport rep;
  rep.threads = cfg_.threads;
  rep.lookahead = cfg_.lookahead;
  rep.events = events_executed();
  rep.virtual_events = virtual_events_;
  rep.windows_parallel = windows_parallel_;
  rep.windows_serial = windows_serial_;
  rep.windows_host = windows_host_;
  rep.cross_shard_events = cross_shard_events_;
  rep.parallel_window_events = parallel_window_events_;
  rep.peak_pending_events = peak_pending_;
  rep.barrier_stall_seconds = barrier_stall_seconds_;
  rep.barrier_wait_hist = barrier_hist_;
  const detail::ActionAllocStats a = detail::action_alloc_stats();
  rep.action_pool_blocks = a.pool_blocks - alloc_base_.pool_blocks;
  rep.action_pool_reuses = a.pool_reuses - alloc_base_.pool_reuses;
  rep.action_oversize_allocs = a.oversize_allocs - alloc_base_.oversize_allocs;
  rep.shard_events.resize(static_cast<std::size_t>(cfg_.threads), 0);
  for (int w = 0; w < cfg_.threads; ++w) {
    for (u32 r = shard_begin_[static_cast<std::size_t>(w)];
         r < shard_begin_[static_cast<std::size_t>(w) + 1]; ++r) {
      rep.shard_events[static_cast<std::size_t>(w)] += ranks_[r].executed;
    }
  }
  return rep;
}

}  // namespace qcdoc::sim
