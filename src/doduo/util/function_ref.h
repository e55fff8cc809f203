#ifndef DODUO_UTIL_FUNCTION_REF_H_
#define DODUO_UTIL_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace doduo::util {

template <typename Signature>
class FunctionRef;

/// A non-owning reference to a callable: two pointers, built from any
/// callable without copying or allocating it. The referenced callable must
/// outlive every call, so a FunctionRef belongs in parameters (ParallelFor's
/// body), never in a member or a queue.
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  // Implicit, so a lambda passes where a FunctionRef is expected.
  FunctionRef(F&& f)
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace doduo::util

#endif  // DODUO_UTIL_FUNCTION_REF_H_
