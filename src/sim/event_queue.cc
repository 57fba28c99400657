#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace performa::sim {

bool
EventHandle::pending() const
{
    return queue_ && queue_->st_.records[slot_].gen == gen_;
}

EventHandle
EventQueue::schedule(Tick when, Handler fn)
{
    if (when < st_.now)
        PANIC("scheduling event in the past: ", when, " < ", st_.now);
    std::uint32_t slot;
    if (!st_.freeSlots.empty()) {
        slot = st_.freeSlots.back();
        st_.freeSlots.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(st_.records.size());
        st_.records.emplace_back();
    }
    Record &r = st_.records[slot];
    r.fn = std::move(fn);
    st_.heap.push_back(HeapEntry{when, st_.nextSeq++, slot, r.gen});
    std::push_heap(st_.heap.begin(), st_.heap.end(), Later{});
    ++st_.live;
    return EventHandle(this, slot, r.gen);
}

EventHandle
EventQueue::scheduleIn(Tick delay, Handler fn)
{
    return schedule(st_.now + delay, std::move(fn));
}

void
EventQueue::cancel(EventHandle &h)
{
    if (h.queue_ == this && st_.records[h.slot_].gen == h.gen_) {
        Record &r = st_.records[h.slot_];
        // Bumping the generation invalidates the heap entry and every
        // outstanding copy of the handle in one step; the slot is
        // immediately reusable.
        ++r.gen;
        r.fn.reset(); // release captured state eagerly
        st_.freeSlots.push_back(h.slot_);
        --st_.live;
        maybeCompact();
    }
    h = EventHandle();
}

void
EventQueue::pruneStaleHead()
{
    while (!st_.heap.empty() && !live(st_.heap.front())) {
        std::pop_heap(st_.heap.begin(), st_.heap.end(), Later{});
        st_.heap.pop_back();
    }
}

EventQueue::HeapEntry
EventQueue::popHead()
{
    HeapEntry e = st_.heap.front();
    std::pop_heap(st_.heap.begin(), st_.heap.end(), Later{});
    st_.heap.pop_back();
    return e;
}

void
EventQueue::fire(const HeapEntry &e)
{
    Record &r = st_.records[e.slot];
    st_.now = e.when;
    ++r.gen; // handles to this event are stale from here on
    Handler fn = std::move(r.fn);
    st_.freeSlots.push_back(e.slot);
    --st_.live;
    ++st_.executed;
    // Invoke only after retiring the slot: the handler may schedule
    // more events, growing the slab and the heap.
    fn();
}

void
EventQueue::maybeCompact()
{
    // Lazy deletion keeps cancel O(1), but a cancel-heavy run (TCP
    // timers, request expiries) would otherwise carry dead entries
    // until their original due time. Rebuild once they outnumber the
    // live ones; the (when, seq) key survives the rebuild, so FIFO
    // tie-break order — and thus determinism — is unaffected.
    std::size_t stale = st_.heap.size() - st_.live;
    if (st_.heap.size() < 64 || stale * 2 <= st_.heap.size())
        return;
    st_.heap.erase(std::remove_if(st_.heap.begin(), st_.heap.end(),
                               [this](const HeapEntry &e) {
                                   return !live(e);
                               }),
                st_.heap.end());
    std::make_heap(st_.heap.begin(), st_.heap.end(), Later{});
}

void
EventQueue::fireLane(std::size_t i)
{
    RingBuffer<LaneEntry> &lane = st_.lanes[i];
    LaneEntry e = lane.front();
    lane.pop_front();
    st_.now = e.when;
    ++st_.executed;
    const Lane &w = laneWiring_[i];
    w.fn(w.obj, e.tag);
}

inline std::size_t
EventQueue::next(Tick &when)
{
    pruneStaleHead();
    std::size_t pick = nextIsNone;
    std::uint64_t seq = 0;
    if (!st_.heap.empty()) {
        pick = nextIsHeap;
        when = st_.heap.front().when;
        seq = st_.heap.front().seq;
    }
    for (std::size_t i = 0; i < st_.lanes.size(); ++i) {
        if (st_.lanes[i].empty())
            continue;
        const LaneEntry &e = st_.lanes[i].front();
        if (pick == nextIsNone || e.when < when ||
            (e.when == when && e.seq < seq)) {
            pick = i;
            when = e.when;
            seq = e.seq;
        }
    }
    return pick;
}

inline void
EventQueue::firePick(std::size_t pick)
{
    if (pick == nextIsHeap)
        fire(popHead());
    else
        fireLane(pick);
}

EventQueue::LaneId
EventQueue::addLane(Tick delay, void *obj,
                    void (*fn)(void *obj, std::uint64_t tag))
{
    laneWiring_.push_back(Lane{delay, obj, fn});
    st_.lanes.emplace_back();
    return static_cast<LaneId>(laneWiring_.size() - 1);
}

bool
EventQueue::runOne()
{
    Tick when = 0;
    std::size_t pick = next(when);
    if (pick == nextIsNone)
        return false;
    firePick(pick);
    return true;
}

void
EventQueue::runAll(Tick limit)
{
    // next() prunes before the limit check: a cancelled head must not
    // let an event scheduled after @p limit execute (historical
    // overshoot bug — runOne() skips cancelled entries
    // unconditionally).
    for (;;) {
        Tick when = 0;
        std::size_t pick = next(when);
        if (pick == nextIsNone || when > limit)
            break;
        firePick(pick);
    }
}

void
EventQueue::runUntil(Tick limit)
{
    runAll(limit);
    if (st_.now < limit)
        st_.now = limit;
}

} // namespace performa::sim
