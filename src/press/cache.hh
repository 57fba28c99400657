/**
 * @file
 * The per-node LRU file cache. For VIA-PRESS-5 every cached file's
 * pages must be registered (pinned) with the VIA provider; the pin
 * hooks connect the cache to the node's pinnable-page budget so that
 * the pin-exhaustion fault shrinks the cache, exactly as described in
 * Section 5.4 of the paper.
 */

#ifndef PERFORMA_PRESS_CACHE_HH
#define PERFORMA_PRESS_CACHE_HH

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>

#include "sim/types.hh"

namespace performa::press {

/**
 * LRU cache of uniformly sized files.
 */
class FileCache
{
  public:
    /** Try to pin @p bytes; false when the budget is exhausted. */
    using PinHook = std::function<bool(std::uint64_t)>;
    /** Unpin @p bytes. */
    using UnpinHook = std::function<void(std::uint64_t)>;
    /** A file left (or entered) the cache. */
    using EvictCb = std::function<void(sim::FileId)>;

    FileCache(std::uint64_t capacity_bytes, std::uint64_t file_bytes)
        : capacityFiles_(file_bytes ? capacity_bytes / file_bytes : 0),
          fileBytes_(file_bytes)
    {}

    /**
     * Copies carry the contents, LRU order and pin hooks, and index
     * their own list. A snapshot copy fires no hooks: the pin
     * accounting it implies is rewound wholesale by the node's
     * PinManager state, so re-running them would double-count it.
     */
    FileCache(const FileCache &o)
        : capacityFiles_(o.capacityFiles_), fileBytes_(o.fileBytes_),
          lru_(o.lru_), pin_(o.pin_), unpin_(o.unpin_)
    {
        reindex();
    }

    FileCache &
    operator=(const FileCache &o)
    {
        if (this != &o) {
            capacityFiles_ = o.capacityFiles_;
            fileBytes_ = o.fileBytes_;
            lru_ = o.lru_;
            pin_ = o.pin_;
            unpin_ = o.unpin_;
            reindex();
        }
        return *this;
    }

    /** Enable dynamic pinning (VIA-PRESS-5). */
    void
    setPinHooks(PinHook pin, UnpinHook unpin)
    {
        pin_ = std::move(pin);
        unpin_ = std::move(unpin);
    }

    bool contains(sim::FileId f) const { return index_.count(f) != 0; }

    /** LRU bump on a cache hit. */
    void
    touch(sim::FileId f)
    {
        auto it = index_.find(f);
        if (it == index_.end())
            return;
        lru_.splice(lru_.begin(), lru_, it->second);
    }

    /**
     * Insert @p f, evicting LRU files as needed (each eviction invokes
     * @p on_evict so the server can broadcast it).
     *
     * @return false when the file could not be cached at all: with
     * dynamic pinning enabled this happens when the pin budget is
     * exhausted even after evicting everything.
     */
    bool
    insert(sim::FileId f, const EvictCb &on_evict)
    {
        if (capacityFiles_ == 0)
            return false;
        if (contains(f)) {
            touch(f);
            return true;
        }
        while (index_.size() >= capacityFiles_)
            evictLru(on_evict);
        if (pin_) {
            // Zero-copy requires the file's pages pinned; shed LRU
            // files until the pin succeeds ("it drops files from its
            // cache to free up memory").
            while (!pin_(fileBytes_)) {
                if (index_.empty())
                    return false;
                evictLru(on_evict);
            }
        }
        lru_.push_front(f);
        index_[f] = lru_.begin();
        return true;
    }

    /** Evict the least recently used file (no-op when empty). */
    void
    evictLru(const EvictCb &on_evict)
    {
        if (lru_.empty())
            return;
        sim::FileId victim = lru_.back();
        lru_.pop_back();
        index_.erase(victim);
        if (unpin_)
            unpin_(fileBytes_);
        if (on_evict)
            on_evict(victim);
    }

    /** Drop everything (process restart). */
    void
    clear()
    {
        if (unpin_) {
            for (std::size_t i = 0; i < lru_.size(); ++i)
                unpin_(fileBytes_);
        }
        lru_.clear();
        index_.clear();
    }

    std::size_t size() const { return index_.size(); }
    std::size_t capacityFiles() const { return capacityFiles_; }
    std::uint64_t fileBytes() const { return fileBytes_; }

    /** Iterate cached files in MRU-to-LRU order. */
    const std::list<sim::FileId> &files() const { return lru_; }

  private:
    /** Point the index at this object's own list nodes. */
    void
    reindex()
    {
        index_.clear();
        for (auto it = lru_.begin(); it != lru_.end(); ++it)
            index_[*it] = it;
    }

    std::size_t capacityFiles_;
    std::uint64_t fileBytes_;
    std::list<sim::FileId> lru_;
    std::unordered_map<sim::FileId, std::list<sim::FileId>::iterator>
        index_;
    PinHook pin_;
    UnpinHook unpin_;
};

} // namespace performa::press

#endif // PERFORMA_PRESS_CACHE_HH
