/**
 * @file
 * Small-buffer move-only callable, the event queue's callback type.
 *
 * std::function heap-allocates any capture larger than two pointers,
 * which made every scheduled event an allocation. InlineFunction
 * stores captures up to InlineSize bytes inside the object itself
 * (enough for the simulator's {this, id, tick} lambdas and for a
 * timed delivery's {DeliveryFn, dst, when} capture) and has no heap
 * fallback: an oversized capture, or one whose move may throw, is a
 * compile error, so no event can silently allocate.
 */

#ifndef MSCP_SIM_INLINE_FUNCTION_HH
#define MSCP_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace mscp
{

/** Move-only `void()` callable with inline storage. */
class InlineFunction
{
  public:
    /** Inline capture capacity in bytes. */
    static constexpr std::size_t InlineSize = 56;

    InlineFunction() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction>>>
    InlineFunction(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= InlineSize,
                      "capture exceeds InlineFunction::InlineSize "
                      "(56 bytes); InlineFunction never allocates");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "capture over-aligned for InlineFunction");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "InlineFunction requires nothrow-movable "
                      "captures");
        ::new (storage()) Fn(std::forward<F>(f));
        ops = &inlineOps<Fn>;
    }

    InlineFunction(InlineFunction &&o) noexcept
    {
        moveFrom(std::move(o));
    }

    InlineFunction &
    operator=(InlineFunction &&o) noexcept
    {
        if (this != &o) {
            destroy();
            moveFrom(std::move(o));
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { destroy(); }

    explicit operator bool() const { return ops != nullptr; }

    void
    operator()()
    {
        ops->invoke(this);
    }

  private:
    struct Ops
    {
        void (*invoke)(InlineFunction *);
        void (*moveTo)(InlineFunction *from, InlineFunction *to);
        void (*destroy)(InlineFunction *);
    };

    void *storage() { return buf; }

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](InlineFunction *self) {
            (*std::launder(
                reinterpret_cast<Fn *>(self->storage())))();
        },
        [](InlineFunction *from, InlineFunction *to) {
            Fn *src = std::launder(
                reinterpret_cast<Fn *>(from->storage()));
            ::new (to->storage()) Fn(std::move(*src));
            src->~Fn();
        },
        [](InlineFunction *self) {
            std::launder(
                reinterpret_cast<Fn *>(self->storage()))->~Fn();
        },
    };

    void
    moveFrom(InlineFunction &&o) noexcept
    {
        ops = o.ops;
        if (ops)
            ops->moveTo(&o, this);
        o.ops = nullptr;
    }

    void
    destroy()
    {
        if (ops) {
            ops->destroy(this);
            ops = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf[InlineSize];
    const Ops *ops = nullptr;
};

/**
 * Copyable `void(Args...)` callable with inline-only storage.
 *
 * The delivery-callback counterpart of InlineFunction: a network
 * send schedules one event per delivery and each event needs its
 * own copy of the callback, so the type must be cheaply copyable.
 * Storage is strictly inline - there is no heap fallback - and the
 * functor must be trivially copyable, which every capture the
 * simulator uses ({this, slot} or a couple of references) is. Both
 * constraints are enforced at compile time, so the zero-allocation
 * guarantee of the delivery path cannot silently regress.
 */
template <typename... Args>
class InlineCallback
{
  public:
    /** Inline capture capacity in bytes. */
    static constexpr std::size_t InlineSize = 24;

    InlineCallback() = default;

    /** Callers historically pass nullptr for "no callback". */
    InlineCallback(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
    InlineCallback(F f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= InlineSize,
                      "capture exceeds InlineCallback::InlineSize "
                      "(24 bytes)");
        static_assert(alignof(Fn) <= alignof(void *),
                      "capture over-aligned for InlineCallback");
        static_assert(std::is_trivially_copyable_v<Fn>,
                      "InlineCallback requires trivially copyable "
                      "functors");
        static_assert(std::is_trivially_destructible_v<Fn>,
                      "InlineCallback requires trivially "
                      "destructible functors");
        ::new (static_cast<void *>(buf)) Fn(std::move(f));
        invoke = [](void *p, Args... args) {
            (*std::launder(reinterpret_cast<Fn *>(p)))(args...);
        };
    }

    explicit operator bool() const { return invoke != nullptr; }

    void
    operator()(Args... args) const
    {
        invoke(buf, args...);
    }

  private:
    void (*invoke)(void *, Args...) = nullptr;
    /** Mutable so stateful (mutable-lambda) functors stay callable
     *  through the const interface the send paths use. Pointer
     *  alignment keeps the object at 8 + InlineSize = 32 bytes, so
     *  a delivery event's {DeliveryFn, dst, when} capture
     *  (32 + 4 + 8 bytes) fits InlineFunction's buffer. */
    alignas(void *) mutable unsigned char buf[InlineSize];
};

} // namespace mscp

#endif // MSCP_SIM_INLINE_FUNCTION_HH
