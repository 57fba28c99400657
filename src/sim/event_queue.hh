/**
 * @file
 * The discrete-event engine at the heart of the simulated cluster.
 *
 * Every other subsystem (network, node OS, protocol stacks, servers,
 * clients, fault injector) expresses its behaviour as events scheduled
 * on a single EventQueue. Events at the same tick execute in schedule
 * order, which makes runs fully deterministic for a given seed.
 *
 * Hot-path design: event state lives in a slab of reusable records
 * addressed by {slot, generation} handles, and the heap holds only
 * plain 24-byte {when, seq, slot, gen} entries. Scheduling a handler
 * whose captures fit SmallFn's inline buffer performs no allocation
 * once the slab has warmed up, and cancellation is a generation bump —
 * O(1), allocation-free. Cancelled entries are deleted lazily: they
 * are dropped when they reach the top of the heap, and when they ever
 * outnumber live entries the heap is compacted in one pass, so the
 * heap stays bounded at < 2x the number of live events even under
 * cancel-heavy workloads (TCP retransmit timers).
 *
 * Fixed-delay lanes: an event that is always scheduled a constant
 * delay after now, always by the same handler, and never cancelled
 * (a client's request deadline) can go on a lane instead of the heap.
 * A lane is a FIFO ring of plain {when, seq, tag} entries; its one
 * handler is wiring registered at construction (addLane), so an entry
 * needs no slab record and no callable. Because now never decreases
 * and seq only grows, `now + delay` makes every lane sorted by
 * (when, seq), so each lane's front is its minimum. The run loops
 * take the smallest (when, seq) over the heap head and the lane
 * fronts; entries draw seq from the same counter as heap events, so a
 * lane event runs at exactly the position in the event stream it
 * would have had in the heap. Lane entries have no handle and cannot
 * be cancelled: removing one from the middle would break the ring,
 * and a stale deadline is cheaper to ignore when it fires.
 */

#ifndef PERFORMA_SIM_EVENT_QUEUE_HH
#define PERFORMA_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/ring_buffer.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace performa::sim {

class EventQueue;
class SnapshotRegistry;

/**
 * Handle to a scheduled event, usable to cancel it before it fires.
 *
 * A handle is a trivially-copyable {queue, slot, generation} triple
 * into the queue's record slab; it owns nothing. The generation check
 * makes stale handles safe: once the event fires or is cancelled the
 * record's generation is bumped, so every outstanding copy of the
 * handle reports !pending() and cancels as a no-op, even after the
 * slot has been reused for a newer event (no ABA). Handles must not
 * outlive their EventQueue.
 *
 * Default-constructed handles refer to no event and are safe to cancel.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** @return true if the handle refers to an event not yet fired. */
    bool pending() const;

  private:
    friend class EventQueue;

    EventHandle(EventQueue *q, std::uint32_t slot, std::uint32_t gen)
        : queue_(q), slot_(slot), gen_(gen)
    {}

    EventQueue *queue_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
};

/**
 * A deterministic priority queue of timed callbacks.
 *
 * Two events scheduled for the same tick fire in the order they were
 * scheduled (FIFO tie-break on a sequence number).
 */
class EventQueue
{
  public:
    using Handler = SmallFn<void()>;

    /** Index of a fixed-delay lane, as returned by addLane(). */
    using LaneId = std::uint32_t;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** @return the current simulated time. */
    Tick now() const { return st_.now; }

    /**
     * Schedule @p fn to run at absolute time @p when.
     * Scheduling in the past is a bug and panics.
     */
    EventHandle schedule(Tick when, Handler fn);

    /** Schedule @p fn to run @p delay ticks from now. */
    EventHandle scheduleIn(Tick delay, Handler fn);

    /**
     * Cancel a previously scheduled event and clear @p h. Cancelling
     * an already-fired or empty handle is a harmless no-op.
     */
    void cancel(EventHandle &h);

    /**
     * Register a fixed-delay lane whose events call `obj->*Method(tag)`
     * @p delay ticks after they are scheduled, e.g.
     * `addLane<&ClientFarm::expire>(timeout, this)`. Lanes are wiring:
     * add them at construction, before any snapshot is captured.
     */
    template <auto Method, typename T>
    LaneId
    addLane(Tick delay, T *obj)
    {
        return addLane(delay, obj, [](void *o, std::uint64_t tag) {
            (static_cast<T *>(o)->*Method)(tag);
        });
    }

    /**
     * Schedule @p lane's handler with @p tag at now + the lane's delay.
     * The entry takes the next sequence number, exactly as schedule()
     * would, and cannot be cancelled.
     */
    void
    scheduleLane(LaneId lane, std::uint64_t tag)
    {
        if (lane >= st_.lanes.size())
            PANIC("lane ", lane, " was not added before this state");
        st_.lanes[lane].push_back(
            LaneEntry{st_.now + laneWiring_[lane].delay, st_.nextSeq++, tag});
    }

    /**
     * Run the single next event, advancing time to it.
     * @return false if no live event remains.
     */
    bool runOne();

    /**
     * Run every event scheduled at or before @p limit, then advance
     * the clock to exactly @p limit.
     */
    void runUntil(Tick limit);

    /**
     * Run until no live event at or before @p limit remains. Unlike
     * runUntil, the clock is left at the last executed event. Never
     * executes an event scheduled after @p limit.
     */
    void runAll(Tick limit = maxTick);

    /**
     * @return number of events not yet fired: live (uncancelled) heap
     * events plus every lane entry.
     */
    std::size_t pending() const { return st_.live + laneDepth(); }

    /**
     * @return heap entries held: live events plus lazily-deleted
     * cancelled ones awaiting compaction (introspection/benchmarks).
     * Lane entries are not in the heap; see laneDepth().
     */
    std::size_t heapSize() const { return st_.heap.size(); }

    /** @return entries waiting on all lanes together. */
    std::size_t
    laneDepth() const
    {
        std::size_t n = 0;
        for (const RingBuffer<LaneEntry> &l : st_.lanes)
            n += l.size();
        return n;
    }

    /** @return total number of events executed so far. */
    std::uint64_t executed() const { return st_.executed; }

  private:
    friend class EventHandle;
    friend class SnapshotRegistry;

    /** Slab cell: handler storage plus the slot's current generation. */
    struct Record
    {
        Handler fn;
        std::uint32_t gen = 0;
    };

    /** Heap entry: plain data; the callable stays in the slab. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /** Lane entry: plain data; the lane's wiring holds the handler. */
    struct LaneEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint64_t tag;
    };

    /** A lane's wiring, fixed at construction (outside State). */
    struct Lane
    {
        Tick delay;
        void *obj;
        void (*fn)(void *obj, std::uint64_t tag);
    };

    /** Sentinels for next(): the heap head is next, or nothing is. */
    static constexpr std::size_t nextIsHeap = ~std::size_t{0};
    static constexpr std::size_t nextIsNone = nextIsHeap - 1;

    struct Later
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** @return true if @p e still refers to a live (uncancelled) event. */
    bool
    live(const HeapEntry &e) const
    {
        return st_.records[e.slot].gen == e.gen;
    }

    /** Drop cancelled entries from the top of the heap. */
    void pruneStaleHead();

    /** Pop the head entry off the heap (must exist). */
    HeapEntry popHead();

    /** Execute @p e: advance time, retire the slot, invoke the handler. */
    void fire(const HeapEntry &e);

    /** Pop and execute the front entry of lane @p i (must exist). */
    void fireLane(std::size_t i);

    /**
     * Find the next event by (when, seq) over the heap head and every
     * lane front, pruning cancelled heap heads first.
     * @return its lane index, nextIsHeap or nextIsNone; @p when is
     * set to its time unless nextIsNone.
     */
    std::size_t next(Tick &when);

    /** Execute the event next() picked (not nextIsNone). */
    void firePick(std::size_t pick);

    /** Add the wiring of a lane; see the public addLane(). */
    LaneId addLane(Tick delay, void *obj,
                   void (*fn)(void *obj, std::uint64_t tag));

    /** Rebuild the heap without cancelled entries when they dominate. */
    void maybeCompact();

    /**
     * Everything a snapshot captures: clock, sequence counter, the
     * record slab (handlers copied), free list, heap and lane entries.
     * Restoring it rewinds the queue slot for slot, so outstanding
     * EventHandle {slot, gen} triples from snapshot time become valid
     * again.
     */
    struct State
    {
        Tick now = 0;
        std::uint64_t nextSeq = 0;
        std::uint64_t executed = 0;
        std::size_t live = 0;
        std::vector<Record> records;
        std::vector<std::uint32_t> freeSlots;
        std::vector<HeapEntry> heap;
        std::vector<RingBuffer<LaneEntry>> lanes; ///< by LaneId
    };

    State st_;
    std::vector<Lane> laneWiring_; ///< by LaneId
};

} // namespace performa::sim

#endif // PERFORMA_SIM_EVENT_QUEUE_HH
