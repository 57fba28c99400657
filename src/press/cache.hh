/**
 * @file
 * The per-node LRU file cache. For VIA-PRESS-5 every cached file's
 * pages must be registered (pinned) with the VIA provider; the pin
 * hooks connect the cache to the node's pinnable-page budget so that
 * the pin-exhaustion fault shrinks the cache, exactly as described in
 * Section 5.4 of the paper.
 *
 * File ids are Zipf ranks, dense from 0, so the LRU list is intrusive:
 * one {prev, next, cached} link per file id in a flat vector, grown on
 * first insert of a higher id. A copy is a plain vector copy, which is
 * what makes snapshotting a server's cache cheap.
 */

#ifndef PERFORMA_PRESS_CACHE_HH
#define PERFORMA_PRESS_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace performa::press {

/**
 * LRU cache of uniformly sized files.
 *
 * Copies carry the contents, LRU order and pin hooks. A snapshot copy
 * fires no hooks: the pin accounting it implies is rewound wholesale
 * by the node's PinManager state, so re-running them would
 * double-count it.
 */
class FileCache
{
    static constexpr sim::FileId none = ~sim::FileId(0);

    /** Intrusive LRU link of one file id. */
    struct Link
    {
        sim::FileId prev = none; ///< towards the MRU end
        sim::FileId next = none; ///< towards the LRU end
        bool cached = false;
    };

  public:
    /** Try to pin @p bytes; false when the budget is exhausted. */
    using PinHook = sim::SmallFn<bool(std::uint64_t)>;
    /** Unpin @p bytes. */
    using UnpinHook = sim::SmallFn<void(std::uint64_t)>;

    FileCache(std::uint64_t capacity_bytes, std::uint64_t file_bytes)
        : capacityFiles_(file_bytes ? capacity_bytes / file_bytes : 0),
          fileBytes_(file_bytes)
    {}

    /** Enable dynamic pinning (VIA-PRESS-5). */
    void
    setPinHooks(PinHook pin, UnpinHook unpin)
    {
        pin_ = std::move(pin);
        unpin_ = std::move(unpin);
    }

    bool
    contains(sim::FileId f) const
    {
        return f < links_.size() && links_[f].cached;
    }

    /** LRU bump on a cache hit. */
    void
    touch(sim::FileId f)
    {
        if (!contains(f) || f == head_)
            return;
        unlink(f);
        pushFront(f);
    }

    /**
     * Insert @p f, evicting LRU files as needed (each eviction calls
     * @p on_evict, by default a no-op, with the victim so the server
     * can broadcast it).
     *
     * @return false when the file could not be cached at all: with
     * dynamic pinning enabled this happens when the pin budget is
     * exhausted even after evicting everything.
     */
    template <typename OnEvict = void (*)(sim::FileId)>
    bool
    insert(sim::FileId f, OnEvict on_evict = [](sim::FileId) {})
    {
        if (capacityFiles_ == 0)
            return false;
        if (contains(f)) {
            touch(f);
            return true;
        }
        while (size_ >= capacityFiles_)
            evictLru(on_evict);
        if (pin_) {
            // Zero-copy requires the file's pages pinned; shed LRU
            // files until the pin succeeds ("it drops files from its
            // cache to free up memory").
            while (!pin_(fileBytes_)) {
                if (size_ == 0)
                    return false;
                evictLru(on_evict);
            }
        }
        if (f >= links_.size())
            links_.resize(std::size_t(f) + 1);
        pushFront(f);
        return true;
    }

    /** Evict the least recently used file (no-op when empty). */
    template <typename OnEvict = void (*)(sim::FileId)>
    void
    evictLru(OnEvict on_evict = [](sim::FileId) {})
    {
        if (size_ == 0)
            return;
        sim::FileId victim = tail_;
        unlink(victim);
        if (unpin_)
            unpin_(fileBytes_);
        on_evict(victim);
    }

    /** Drop everything (process restart). */
    void
    clear()
    {
        if (unpin_) {
            for (std::size_t i = 0; i < size_; ++i)
                unpin_(fileBytes_);
        }
        links_.clear();
        head_ = tail_ = none;
        size_ = 0;
    }

    std::size_t size() const { return size_; }
    std::size_t capacityFiles() const { return capacityFiles_; }
    std::uint64_t fileBytes() const { return fileBytes_; }

    /** The cached files in MRU-to-LRU order. */
    std::vector<sim::FileId>
    files() const
    {
        std::vector<sim::FileId> out;
        out.reserve(size_);
        for (sim::FileId f = head_; f != none; f = links_[f].next)
            out.push_back(f);
        return out;
    }

  private:
    void
    pushFront(sim::FileId f)
    {
        Link &l = links_[f];
        l.prev = none;
        l.next = head_;
        l.cached = true;
        if (head_ != none)
            links_[head_].prev = f;
        else
            tail_ = f;
        head_ = f;
        ++size_;
    }

    void
    unlink(sim::FileId f)
    {
        Link &l = links_[f];
        if (l.prev != none)
            links_[l.prev].next = l.next;
        else
            head_ = l.next;
        if (l.next != none)
            links_[l.next].prev = l.prev;
        else
            tail_ = l.prev;
        l = Link{};
        --size_;
    }

    std::size_t capacityFiles_;
    std::uint64_t fileBytes_;
    std::vector<Link> links_; ///< indexed by file id
    sim::FileId head_ = none; ///< MRU
    sim::FileId tail_ = none; ///< LRU
    std::size_t size_ = 0;
    PinHook pin_;
    UnpinHook unpin_;
};

} // namespace performa::press

#endif // PERFORMA_PRESS_CACHE_HH
