// A non-owning reference to a callable, passed by value: the type of a
// callback that runs only during the call it is handed to. It never
// allocates, and it refers to the callable it was built from, so it must
// not outlive it (a lambda argument lives until the end of the call's full
// expression, which is long enough).
#pragma once

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace oo {

template <class Signature>
class FunctionRef;

template <class R, class... Args>
class FunctionRef<R(Args...)> {
 public:
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f) noexcept
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          auto& fn = *static_cast<std::remove_reference_t<F>*>(obj);
          if constexpr (std::is_void_v<R>) {
            std::invoke(fn, std::forward<Args>(args)...);
          } else {
            return std::invoke(fn, std::forward<Args>(args)...);
          }
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace oo
