// Pooled small-buffer callable for engine event actions.
//
// Every scheduled event used to carry a std::function<void()>; the typical
// action captures two or three pointers plus a handful of integers, which
// overflows libstdc++'s 16-byte inline buffer and costs one heap
// allocation *per event* -- tens of millions of them in a 4^6 CG solve.
// EventFn is a move-only replacement with a 48-byte inline buffer sized so
// that every action in the model stores inline.  Oversized callables fall
// back to a recycling freelist of fixed-size blocks, so even they stop
// touching the heap once the pool is warm.
//
// The allocation counters are process-global and monotonic; the engines
// snapshot them at construction and report deltas, and the perf benches use
// them for a count-based (wall-time-free, flake-free) gate that the steady
// state allocates zero heap blocks per event.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/types.h"

namespace qcdoc::sim {

namespace detail {

/// Fixed block size for the oversized-action pool.  Anything larger still
/// (rare: big by-value captures) falls through to plain operator new, which
/// is counted separately so the zero-alloc gate catches it.
inline constexpr std::size_t kActionPoolBlock = 256;

void* action_alloc(std::size_t bytes);
void action_free(void* p, std::size_t bytes) noexcept;

/// Monotonic process-wide counters.  `pool_blocks` counts fresh blocks
/// carved for the freelist (a warm pool stops growing), `pool_reuses`
/// counts freelist hits, `oversize_allocs` counts actions too big even for
/// a pool block.  Heap traffic per event in steady state is zero iff
/// pool_blocks + oversize_allocs stops moving.
struct ActionAllocStats {
  u64 pool_blocks = 0;
  u64 pool_reuses = 0;
  u64 oversize_allocs = 0;
  /// Heap blocks obtained from the system allocator (not recycled).
  u64 heap_blocks() const { return pool_blocks + oversize_allocs; }
};
ActionAllocStats action_alloc_stats() noexcept;

}  // namespace detail

/// Move-only type-erased void() callable with a 48-byte small-buffer
/// optimization and a pooled heap fallback.  Drop-in for the scheduling
/// subset of std::function<void()>: implicit construction from any
/// invocable, operator(), bool conversion.  Copying is deliberately absent
/// -- an event action is scheduled once and executed once.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  EventFn() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    } else {
      heap_ = detail::action_alloc(sizeof(D));
      try {
        ::new (heap_) D(std::forward<F>(f));
      } catch (...) {
        detail::action_free(heap_, sizeof(D));
        heap_ = nullptr;
        throw;
      }
    }
    ops_ = &kOps<D>;
  }

  EventFn(EventFn&& o) noexcept : heap_(o.heap_), ops_(o.ops_) {
    if (ops_ != nullptr && heap_ == nullptr) relocate_from(o);
    o.heap_ = nullptr;
    o.ops_ = nullptr;
  }

  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      heap_ = o.heap_;
      ops_ = o.ops_;
      if (ops_ != nullptr && heap_ == nullptr) relocate_from(o);
      o.heap_ = nullptr;
      o.ops_ = nullptr;
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void reset() noexcept {
    if (ops_ == nullptr) return;
    if (ops_->destroy != nullptr) ops_->destroy(target());
    if (heap_ != nullptr) {
      detail::action_free(heap_, ops_->size);
      heap_ = nullptr;
    }
    ops_ = nullptr;
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->call(target()); }

 private:
  struct Ops {
    void (*call)(void*);
    /// Move-construct the target from `src` into `dst`, then destroy the
    /// source.  Only ever used for inline targets, which are restricted to
    /// nothrow-move-constructible types.  Null for trivially copyable
    /// targets (the usual pointers-and-integers capture): those relocate
    /// with a plain copy of the inline buffer, no indirect call.
    void (*relocate)(void* dst, void* src) noexcept;
    /// Null for trivially destructible targets.
    void (*destroy)(void*) noexcept;
    std::size_t size;  ///< allocation size for heap targets
  };

  template <typename D>
  static constexpr Ops kOps{
      [](void* p) { (*static_cast<D*>(p))(); },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              ::new (dst) D(std::move(*static_cast<D*>(src)));
              static_cast<D*>(src)->~D();
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* p) noexcept { static_cast<D*>(p)->~D(); },
      sizeof(D)};

  void relocate_from(EventFn& o) noexcept {
    if (ops_->relocate == nullptr) {
      std::memcpy(buf_, o.buf_, kInlineBytes);
    } else {
      ops_->relocate(buf_, o.buf_);
    }
  }

  void* target() noexcept { return heap_ != nullptr ? heap_ : buf_; }

  // Zero-initialized so a trivial relocation never copies indeterminate
  // bytes past a small target.
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes]{};
  void* heap_ = nullptr;
  const Ops* ops_ = nullptr;
};

}  // namespace qcdoc::sim
