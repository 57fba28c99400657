/**
 * @file
 * SmallFn<R(Args...)>: a callable holder with small-buffer
 * optimization, and the one type-erased callable on the simulation
 * thread (sim, net, os, proto, press, loadgen, faults). Every closure
 * in this tree captures `this` plus a few ids, stamps or refcounted
 * handles; the largest, the 56-byte disk-read completions in
 * press/server.cc, still fit the inline buffer, so no closure touches
 * the allocator. Only oversized or over-aligned captures fall back to
 * the heap.
 */

#ifndef PERFORMA_SIM_SMALL_FN_HH
#define PERFORMA_SIM_SMALL_FN_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/logging.hh"

namespace performa::sim {

template <typename Sig> class SmallFn;

/**
 * A type-erased callable with signature `R(Args...)`, empty after
 * being moved from and invocable only while non-empty. The call
 * operator is const, so const owners (PressConfig::sizeOf) can call
 * through it, and invokes the held callable as a non-const lvalue
 * (so `mutable` lambdas work).
 *
 * Captures need not be copyable, but copying a holder copy-constructs
 * its captures and PANICs when they are not copyable: the
 * snapshot/fork machinery copies a warmed world's handlers and
 * callbacks, and every closure in this tree captures only `this`,
 * ids and refcounted handles, so a non-copyable capture would make
 * its owner unsnapshottable.
 */
template <typename R, typename... Args>
class SmallFn<R(Args...)>
{
  public:
    /** Inline storage size: covers every closure in the tree and
     *  keeps sizeof(SmallFn) at one cache line. */
    static constexpr std::size_t inlineBytes = 56;

    SmallFn() = default;

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, SmallFn> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    SmallFn(F &&f)
    {
        Impl<D>::create(buf_, std::forward<F>(f));
        ops_ = &opsFor<D>;
    }

    SmallFn(SmallFn &&o) noexcept { moveFrom(o); }

    SmallFn &
    operator=(SmallFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    SmallFn(const SmallFn &o) { copyFrom(o); }

    SmallFn &
    operator=(const SmallFn &o)
    {
        if (this != &o) {
            reset();
            copyFrom(o);
        }
        return *this;
    }

    ~SmallFn() { reset(); }

    /** Destroy the held callable, leaving the holder empty. */
    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    /** @return true if a callable is held. */
    explicit operator bool() const { return ops_ != nullptr; }

    /** Invoke the held callable (must be non-empty). */
    R
    operator()(Args... args) const
    {
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        /** Move the callable from src into raw dst, destroying src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
        /** Copy src into raw dst; null when the callable is not
         *  copy-constructible (such a holder cannot be copied). */
        void (*copy)(void *dst, const void *src);
    };

    /**
     * Inline storage additionally requires a nothrow move constructor
     * so relocation (slab growth, heap sifts) cannot throw.
     */
    template <typename D>
    static constexpr bool fitsInline =
        sizeof(D) <= inlineBytes &&
        alignof(D) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<D>;

    /**
     * The ops for callable type D, kept in place in the buffer when it
     * fits and behind a heap pointer stored in the buffer otherwise.
     */
    template <typename D>
    struct Impl
    {
        static D *
        get(const void *b)
        {
            if constexpr (fitsInline<D>) {
                return static_cast<D *>(const_cast<void *>(b));
            } else {
                D *p;
                std::memcpy(&p, b, sizeof p);
                return p;
            }
        }

        template <typename F>
        static void
        create(void *dst, F &&f)
        {
            if constexpr (fitsInline<D>) {
                ::new (dst) D(std::forward<F>(f));
            } else {
                D *p = new D(std::forward<F>(f));
                std::memcpy(dst, &p, sizeof p);
            }
        }

        static R
        invoke(void *b, Args &&...args)
        {
            return static_cast<R>((*get(b))(std::forward<Args>(args)...));
        }

        static void
        relocate(void *dst, void *src) noexcept
        {
            if constexpr (fitsInline<D>) {
                create(dst, std::move(*get(src)));
                get(src)->~D();
            } else {
                std::memcpy(dst, src, sizeof(D *));
            }
        }

        static void
        destroy(void *b) noexcept
        {
            if constexpr (fitsInline<D>)
                get(b)->~D();
            else
                delete get(b);
        }

        static void
        copy(void *dst, const void *src)
        {
            if constexpr (std::is_copy_constructible_v<D>)
                create(dst, *get(src));
        }
    };

    template <typename D>
    static constexpr Ops opsFor = {
        &Impl<D>::invoke, &Impl<D>::relocate, &Impl<D>::destroy,
        std::is_copy_constructible_v<D> ? &Impl<D>::copy : nullptr};

    void
    copyFrom(const SmallFn &o)
    {
        if (o.ops_) {
            if (!o.ops_->copy)
                PANIC("copying a SmallFn with non-copyable captures");
            o.ops_->copy(buf_, o.buf_);
            ops_ = o.ops_;
        }
    }

    void
    moveFrom(SmallFn &o) noexcept
    {
        if (o.ops_) {
            o.ops_->relocate(buf_, o.buf_);
            ops_ = o.ops_;
            o.ops_ = nullptr;
        }
    }

    /** Mutable so the const call operator can invoke a non-const
     *  callable. */
    alignas(std::max_align_t) mutable std::byte buf_[inlineBytes];
    const Ops *ops_ = nullptr;
};

} // namespace performa::sim

#endif // PERFORMA_SIM_SMALL_FN_HH
