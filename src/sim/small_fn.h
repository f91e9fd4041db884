// Generalized small-buffer callable sharing the event-action pool.
//
// EventFn (event_fn.h) fixed the per-event std::function allocation for the
// engines' void() actions; SmallFn is the same storage scheme behind an
// arbitrary signature, for the model's per-frame callbacks that fire
// millions of times per solve (e.g. hssl::Hssl::DeliveryFn).  A capture up
// to 48 bytes stores inline; larger ones draw recycled blocks from the
// same process-global action pool, so a warm link never touches the heap
// per frame.  Move-only, like EventFn: a delivery callback is registered
// once and fired once.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/event_fn.h"

namespace qcdoc::sim {

template <typename Sig>
class SmallFn;

template <typename R, typename... Args>
class SmallFn<R(Args...)> {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  SmallFn() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, SmallFn> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
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

  SmallFn(SmallFn&& o) noexcept : heap_(o.heap_), ops_(o.ops_) {
    if (ops_ != nullptr && heap_ == nullptr) relocate_from(o);
    o.heap_ = nullptr;
    o.ops_ = nullptr;
  }

  SmallFn& operator=(SmallFn&& o) noexcept {
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

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

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

  R operator()(Args... args) {
    return ops_->call(target(), std::forward<Args>(args)...);
  }

 private:
  /// Same layout and trivial-target shortcuts as EventFn::Ops.
  struct Ops {
    R (*call)(void*, Args...);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    std::size_t size;  ///< allocation size for heap targets
  };

  template <typename D>
  static constexpr Ops kOps{
      [](void* p, Args... args) -> R {
        return (*static_cast<D*>(p))(std::forward<Args>(args)...);
      },
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

  void relocate_from(SmallFn& o) noexcept {
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
