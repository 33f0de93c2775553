// InlineFn<R(Args...)>: the simulator's one callback type. A move-only
// callable with small-buffer optimization: callables up to kInlineBytes
// (and nothrow-movable) are constructed in place, larger ones fall back to
// one heap allocation. The partition hot path — event callbacks, Resource
// and Link completions, backend completions — is written so that every
// closure it creates captures only small handles (`this` plus indices) and
// fits inline; the allocation guard in bench/micro_sim holds it to that.
//
// Like std::function it accepts nullptr (and an empty std::function or null
// function pointer) as the empty callback, and compares equal to nullptr
// when empty. Unlike std::function it is not copyable, so a stored callback
// has exactly one owner and moving it never allocates.
#ifndef SRC_COMMON_INLINE_FN_H_
#define SRC_COMMON_INLINE_FN_H_

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace bsched {

template <typename Sig>
class InlineFn;

template <typename R, typename... Args>
class InlineFn<R(Args...)> {
 public:
  static constexpr size_t kInlineBytes = 48;

  InlineFn() = default;
  InlineFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor): like std::function

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFn> &&
                                        std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor): callback sink
    using D = std::decay_t<F>;
    if constexpr (IsNullable<D>::value) {
      if (!f) {
        return;  // empty std::function / null function pointer: empty callback
      }
    }
    if constexpr (FitsInline<D>()) {
      new (storage_) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFn(InlineFn&& other) noexcept { MoveFrom(other); }
  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  InlineFn& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { Reset(); }

  R operator()(Args... args) { return ops_->invoke(storage_, std::forward<Args>(args)...); }
  explicit operator bool() const { return ops_ != nullptr; }
  friend bool operator==(const InlineFn& fn, std::nullptr_t) { return fn.ops_ == nullptr; }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    // Move-constructs dst's payload from src's and destroys src's.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename D>
  static constexpr bool FitsInline() {
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  struct IsNullable : std::is_pointer<D> {};
  template <typename S>
  struct IsNullable<std::function<S>> : std::true_type {};

  template <typename D>
  static D* Inline(void* storage) {
    return std::launder(reinterpret_cast<D*>(storage));
  }
  template <typename D>
  static D* Heap(void* storage) {
    return *reinterpret_cast<D**>(storage);
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s, Args&&... args) -> R {
        return std::invoke(*Inline<D>(s), std::forward<Args>(args)...);
      },
      [](void* dst, void* src) {
        new (dst) D(std::move(*Inline<D>(src)));
        Inline<D>(src)->~D();
      },
      [](void* s) { Inline<D>(s)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s, Args&&... args) -> R {
        return std::invoke(*Heap<D>(s), std::forward<Args>(args)...);
      },
      [](void* dst, void* src) { *reinterpret_cast<D**>(dst) = Heap<D>(src); },
      [](void* s) { delete Heap<D>(s); },
  };

  void MoveFrom(InlineFn& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace bsched

#endif  // SRC_COMMON_INLINE_FN_H_
