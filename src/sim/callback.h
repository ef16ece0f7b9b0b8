#ifndef FASTCOMMIT_SIM_CALLBACK_H_
#define FASTCOMMIT_SIM_CALLBACK_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace fastcommit::sim {

/// A move-only `void(Args...)` callable stored inline, with no heap path.
/// A closure larger than kInlineBytes does not compile: capture an id or a
/// pointer to state that lives elsewhere, as the database does (a commit
/// round is referenced by its id in the round table, and a PendingTx
/// points at its completion callback), or box the large captures in a
/// std::unique_ptr at the call site. Trivially copyable closures, the
/// common case (pointers, ids, times), move as one fixed-size memcpy.
template <typename... Args>
class InlineFunction {
 public:
  static constexpr size_t kInlineBytes = 64;

  InlineFunction() = default;
  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, InlineFunction>>>
  InlineFunction(F&& f) {  // NOLINT: implicit, so lambdas convert in place
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "closure exceeds the 64-byte inline budget: box its large "
                  "captures in a std::unique_ptr");
    static_assert(alignof(Fn) <= alignof(void*), "over-aligned closure");
    static_assert(std::is_nothrow_move_constructible_v<Fn>);
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &kOps<Fn>;
  }
  InlineFunction(InlineFunction&& other) noexcept { Take(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Destroy();
      Take(other);
    }
    return *this;
  }
  ~InlineFunction() { Destroy(); }

  void operator()(Args... args) { ops_->invoke(storage_, args...); }
  explicit operator bool() const { return ops_ != nullptr; }

 private:
  /// `manage` moves the closure at `from` to `to` (unless null) and
  /// destroys it at `from`; null for trivially copyable closures.
  struct Ops {
    void (*invoke)(void* self, Args... args);
    void (*manage)(void* from, void* to);
  };
  template <typename Fn>
  static constexpr Ops kOps = {
      [](void* self, Args... args) { (*static_cast<Fn*>(self))(args...); },
      std::is_trivially_copyable_v<Fn> ? nullptr : +[](void* from, void* to) {
        if (to != nullptr) ::new (to) Fn(std::move(*static_cast<Fn*>(from)));
        static_cast<Fn*>(from)->~Fn();
      }};

  void Take(InlineFunction& other) noexcept {
    ops_ = std::exchange(other.ops_, nullptr);
    if (ops_ == nullptr) return;
    if (ops_->manage == nullptr) {
      std::memcpy(storage_, other.storage_, kInlineBytes);
    } else {
      ops_->manage(other.storage_, storage_);
    }
  }
  void Destroy() noexcept {
    if (ops_ != nullptr && ops_->manage != nullptr) {
      ops_->manage(storage_, nullptr);
    }
    ops_ = nullptr;
  }

  alignas(void*) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// The closure of every scheduled event and deferred effect.
using Callback = InlineFunction<>;

}  // namespace fastcommit::sim

#endif  // FASTCOMMIT_SIM_CALLBACK_H_
