/**
 * @file
 * Per-node memory managers targeted by the resource-exhaustion faults
 * of the paper (Table 2):
 *
 *  - KernelMemory models the kernel allocator that hands out skbufs
 *    for TCP; the fault injector can force allocations to fail, which
 *    stalls outbound TCP traffic and drops inbound segments.
 *  - PinManager models the pinnable-physical-page budget consumed by
 *    VIA memory registration; the injector can lower the threshold,
 *    which makes further pin requests fail (exactly how the authors
 *    patched the cLAN driver).
 */

#ifndef PERFORMA_OS_MEMORY_HH
#define PERFORMA_OS_MEMORY_HH

#include <cstdint>

namespace performa::sim {
class SnapshotRegistry;
}

namespace performa::osim {

/**
 * The kernel page/skbuf allocator for one node.
 */
class KernelMemory
{
  public:
    explicit KernelMemory(std::uint64_t capacity_bytes)
        : capacity_(capacity_bytes)
    {}

    /**
     * Try to allocate @p bytes of kernel memory.
     * @return false when the injected fault is active or the pool is
     * exhausted.
     */
    bool
    alloc(std::uint64_t bytes)
    {
        if (st_.failInjected || st_.used + bytes > capacity_)
            return false;
        st_.used += bytes;
        return true;
    }

    /** Release @p bytes back to the pool. */
    void
    free(std::uint64_t bytes)
    {
        st_.used = bytes > st_.used ? 0 : st_.used - bytes;
    }

    /** Force all further allocations to fail (fault injection). */
    void setFailInjected(bool on) { st_.failInjected = on; }
    bool failInjected() const { return st_.failInjected; }

    std::uint64_t used() const { return st_.used; }
    std::uint64_t capacity() const { return capacity_; }

    /** Node reboot: empty the pool and clear injected faults. */
    void reset() { st_ = State{}; }

  private:
    friend class sim::SnapshotRegistry;

    std::uint64_t capacity_;

    /** Snapshot state (capacity is configuration). */
    struct State
    {
        std::uint64_t used = 0;
        bool failInjected = false;
    };

    State st_;
};

/**
 * The pinnable-page accountant for one node. Linux 2.2-era kernels
 * limited pinned pages to a fraction of physical memory; VIA memory
 * registration pins pages, so VIA-PRESS-5's dynamic cache pinning can
 * run into this limit.
 */
class PinManager
{
  public:
    explicit PinManager(std::uint64_t limit_bytes) : limit_(limit_bytes) {}

    /**
     * Try to pin @p bytes.
     * @return false when the (possibly fault-lowered) limit would be
     * exceeded.
     */
    bool
    pin(std::uint64_t bytes)
    {
        if (st_.pinned + bytes > effectiveLimit())
            return false;
        st_.pinned += bytes;
        return true;
    }

    /** Unpin @p bytes. */
    void
    unpin(std::uint64_t bytes)
    {
        st_.pinned = bytes > st_.pinned ? 0 : st_.pinned - bytes;
    }

    /**
     * Fault injection: clamp the limit to @p bytes (the modified cLAN
     * driver's adjustable threshold). Pass ~0 to restore.
     */
    void setInjectedLimit(std::uint64_t bytes) { st_.injectedLimit = bytes; }

    std::uint64_t
    effectiveLimit() const
    {
        return st_.injectedLimit < limit_ ? st_.injectedLimit : limit_;
    }

    std::uint64_t pinned() const { return st_.pinned; }
    std::uint64_t limit() const { return limit_; }

    /** Node reboot. */
    void reset() { st_ = State{}; }

  private:
    friend class sim::SnapshotRegistry;

    std::uint64_t limit_;

    /** Snapshot state (the configured limit is not mutable). */
    struct State
    {
        std::uint64_t pinned = 0;
        std::uint64_t injectedLimit = ~std::uint64_t(0);
    };

    State st_;
};

} // namespace performa::osim

#endif // PERFORMA_OS_MEMORY_HH
