/**
 * @file
 * Unit tests for the discrete-event engine: ordering, determinism,
 * cancellation, time-advance semantics and fixed-delay lanes, plus
 * SmallFn copies, argument passing, return values and storage.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/small_fn.hh"
#include "sim/snapshot.hh"

using namespace performa::sim;

TEST(EventQueue, StartsAtTimeZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.executed(), 0u);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.runAll();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(100, [&] {});
    q.runAll();
    q.scheduleIn(50, [&] { seen = q.now(); });
    q.runAll();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 10)
            q.scheduleIn(1, recurse);
    };
    q.scheduleIn(1, recurse);
    q.runAll();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    EventHandle h = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(h.pending());
    q.cancel(h);
    q.runAll();
    EXPECT_FALSE(ran);
    EXPECT_FALSE(h.pending());
}

TEST(EventQueue, CancelAfterFireIsNoop)
{
    EventQueue q;
    int runs = 0;
    EventHandle h = q.schedule(10, [&] { ++runs; });
    q.runAll();
    EXPECT_FALSE(h.pending());
    q.cancel(h); // harmless
    EXPECT_EQ(runs, 1);
}

TEST(EventQueue, CancelDefaultHandleIsNoop)
{
    EventQueue q;
    EventHandle h;
    EXPECT_FALSE(h.pending());
    q.cancel(h); // must not crash
}

TEST(EventQueue, RunUntilAdvancesClockToLimit)
{
    EventQueue q;
    int runs = 0;
    q.schedule(10, [&] { ++runs; });
    q.schedule(100, [&] { ++runs; });
    q.runUntil(50);
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(q.now(), 50u);
    q.runUntil(200);
    EXPECT_EQ(runs, 2);
    EXPECT_EQ(q.now(), 200u);
}

TEST(EventQueue, RunUntilIncludesEventsAtLimit)
{
    EventQueue q;
    bool ran = false;
    q.schedule(50, [&] { ran = true; });
    q.runUntil(50);
    EXPECT_TRUE(ran);
}

TEST(EventQueue, RunOneReturnsFalseWhenEmpty)
{
    EventQueue q;
    EXPECT_FALSE(q.runOne());
    q.schedule(5, [] {});
    EXPECT_TRUE(q.runOne());
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueue, ExecutedCounterCountsOnlyFired)
{
    EventQueue q;
    EventHandle h = q.schedule(1, [] {});
    q.schedule(2, [] {});
    q.cancel(h);
    q.runAll();
    EXPECT_EQ(q.executed(), 1u);
}

TEST(EventQueue, PendingCountsOnlyLiveEvents)
{
    EventQueue q;
    EventHandle a = q.schedule(10, [] {});
    q.schedule(20, [] {});
    q.schedule(30, [] {});
    EXPECT_EQ(q.pending(), 3u);
    q.cancel(a);
    // Quiescence checks must not see the cancelled entry.
    EXPECT_EQ(q.pending(), 2u);
    q.runAll();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.executed(), 2u);
}

TEST(EventQueue, RunAllLimitNotOvershotByCancelledHead)
{
    // Regression: runAll(limit) used to check the head's time and then
    // delegate to runOne(), which skips cancelled entries and executes
    // the next live event even if it lies beyond the limit.
    EventQueue q;
    bool late_ran = false;
    EventHandle head = q.schedule(10, [] {});
    q.schedule(100, [&] { late_ran = true; });
    q.cancel(head);
    q.runAll(50);
    EXPECT_FALSE(late_ran);
    EXPECT_LE(q.now(), 50u);
    q.runAll();
    EXPECT_TRUE(late_ran);
    EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, RunUntilLimitNotOvershotByCancelledHead)
{
    EventQueue q;
    bool late_ran = false;
    EventHandle head = q.schedule(10, [] {});
    q.schedule(100, [&] { late_ran = true; });
    q.cancel(head);
    q.runUntil(50);
    EXPECT_FALSE(late_ran);
    EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, RunAllBoundaryIncludesEventsAtLimit)
{
    EventQueue q;
    int runs = 0;
    q.schedule(50, [&] { ++runs; });
    q.schedule(51, [&] { ++runs; });
    q.runAll(50);
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, StaleHandleAfterSlotReuseIsInert)
{
    // ABA guard: cancelling frees the slot, which the next schedule
    // reuses; the generation bump must keep every old handle stale.
    EventQueue q;
    bool a_ran = false, b_ran = false;
    EventHandle a = q.schedule(10, [&] { a_ran = true; });
    EventHandle stale = a; // copy survives the cancel below
    q.cancel(a);
    EventHandle b = q.schedule(20, [&] { b_ran = true; });
    EXPECT_FALSE(stale.pending());
    EXPECT_TRUE(b.pending());
    q.cancel(stale); // must not cancel b's reused slot
    q.runAll();
    EXPECT_FALSE(a_ran);
    EXPECT_TRUE(b_ran);
}

TEST(EventQueue, HandleCopiesAllGoStaleOnCancel)
{
    EventQueue q;
    bool ran = false;
    EventHandle h = q.schedule(10, [&] { ran = true; });
    EventHandle copy = h;
    q.cancel(h);
    EXPECT_FALSE(copy.pending());
    q.cancel(copy);
    q.runAll();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, HandleGoesStaleAfterFire)
{
    EventQueue q;
    EventHandle h = q.schedule(10, [] {});
    // The slot is reused after the event fires; the old handle must
    // not cancel the newcomer.
    q.runAll();
    bool ran = false;
    EventHandle fresh = q.schedule(20, [&] { ran = true; });
    q.cancel(h);
    EXPECT_TRUE(fresh.pending());
    q.runAll();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, CancellationOrderPreservesFifoOfSurvivors)
{
    EventQueue q;
    std::vector<int> order;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 64; ++i)
        handles.push_back(
            q.schedule(5, [&order, i] { order.push_back(i); }));
    // Cancel the even ones in scattered order.
    for (int i = 62; i >= 0; i -= 2)
        q.cancel(handles[static_cast<std::size_t>(i)]);
    q.runAll();
    ASSERT_EQ(order.size(), 32u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], static_cast<int>(2 * i + 1));
}

TEST(EventQueue, CompactionBoundsHeapUnderCancelChurn)
{
    // Arm-and-cancel churn (the TCP RTO pattern) must not accumulate
    // dead entries until their distant due times: compaction keeps the
    // heap within a small constant of the live count.
    EventQueue q;
    bool sentinel_ran = false;
    q.schedule(2'000'000, [&] { sentinel_ran = true; });
    std::size_t peak = 0;
    for (int i = 0; i < 10000; ++i) {
        EventHandle h = q.scheduleIn(1'000'000, [] {});
        q.cancel(h);
        peak = std::max(peak, q.heapSize());
    }
    EXPECT_LT(peak, 128u);
    EXPECT_EQ(q.pending(), 1u);
    q.runAll();
    EXPECT_TRUE(sentinel_ran);
    EXPECT_EQ(q.executed(), 1u);
}

TEST(EventQueue, CompactionPreservesFifoOrder)
{
    // Trigger compaction mid-stream and verify the survivors still
    // fire in schedule order (the (when, seq) key must survive the
    // heap rebuild, or determinism breaks).
    EventQueue q;
    std::vector<int> order;
    std::vector<EventHandle> doomed;
    for (int i = 0; i < 200; ++i) {
        q.schedule(7, [&order, i] { order.push_back(i); });
        doomed.push_back(q.schedule(9, [] {}));
    }
    for (EventHandle &h : doomed)
        q.cancel(h);
    q.runAll();
    ASSERT_EQ(order.size(), 200u);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelFromWithinHandlerIsSafe)
{
    EventQueue q;
    bool victim_ran = false;
    EventHandle victim;
    q.schedule(10, [&] { q.cancel(victim); });
    victim = q.schedule(20, [&] { victim_ran = true; });
    q.schedule(30, [] {});
    q.runAll();
    EXPECT_FALSE(victim_ran);
    EXPECT_EQ(q.now(), 30u);
    EXPECT_EQ(q.executed(), 2u);
}

TEST(EventQueue, LargeCaptureHandlersStillWork)
{
    // Captures beyond SmallFn's inline buffer take the heap fallback;
    // behaviour must be identical.
    EventQueue q;
    std::array<std::uint64_t, 16> big{};
    big[15] = 42;
    std::uint64_t seen = 0;
    q.schedule(5, [big, &seen] { seen = big[15]; });
    q.runAll();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.runAll();
    EXPECT_DEATH(q.schedule(50, [] {}), "past");
}

namespace {

/** A lane handler that logs (time, tag) into a log shared with heap
 *  events. */
struct LaneLog
{
    EventQueue &q;
    std::vector<std::pair<Tick, std::uint64_t>> fired;

    void hit(std::uint64_t tag) { fired.emplace_back(q.now(), tag); }

    /** A heap event that logs @p tag when it runs. */
    SmallFn<void()>
    heapHit(std::uint64_t tag)
    {
        return [this, tag] { hit(tag); };
    }
};

using Fired = std::vector<std::pair<Tick, std::uint64_t>>;

} // namespace

TEST(EventQueueLane, SameTickHeapAndLaneEventsFireInScheduleOrder)
{
    EventQueue q;
    LaneLog log{q, {}};
    EventQueue::LaneId lane = q.addLane<&LaneLog::hit>(10, &log);
    q.schedule(10, log.heapHit(1));
    q.scheduleLane(lane, 2);
    q.schedule(10, log.heapHit(3));
    q.scheduleLane(lane, 4);
    q.scheduleLane(lane, 5);
    q.schedule(10, log.heapHit(6));
    q.schedule(9, log.heapHit(0));
    q.runAll();
    EXPECT_EQ(log.fired, (Fired{{9, 0}, {10, 1}, {10, 2}, {10, 3},
                                {10, 4}, {10, 5}, {10, 6}}));
    EXPECT_EQ(q.executed(), 7u);
}

TEST(EventQueueLane, TwoLanesWithDifferentDelaysMerge)
{
    EventQueue q;
    LaneLog log{q, {}};
    EventQueue::LaneId slow = q.addLane<&LaneLog::hit>(5, &log);
    EventQueue::LaneId fast = q.addLane<&LaneLog::hit>(3, &log);
    q.scheduleLane(slow, 1); // t=5
    q.scheduleLane(fast, 2); // t=3
    q.schedule(2, [&] {
        q.scheduleLane(slow, 3); // t=7
        q.scheduleLane(fast, 4); // t=5, after tag 1
    });
    q.schedule(4, [&] { q.scheduleLane(fast, 5); }); // t=7, after 3
    q.runAll();
    EXPECT_EQ(log.fired,
              (Fired{{3, 2}, {5, 1}, {5, 4}, {7, 3}, {7, 5}}));
}

TEST(EventQueueLane, RunLoopsNeverRunALaneHeadPastTheLimit)
{
    EventQueue q;
    LaneLog log{q, {}};
    EventQueue::LaneId lane = q.addLane<&LaneLog::hit>(10, &log);
    q.scheduleLane(lane, 1);
    EventHandle doomed = q.schedule(5, [] {});
    q.cancel(doomed); // a cancelled heap head ahead of the lane head
    q.runAll(9);
    EXPECT_TRUE(log.fired.empty());
    EXPECT_EQ(q.now(), 0u);
    q.runUntil(9);
    EXPECT_TRUE(log.fired.empty());
    EXPECT_EQ(q.now(), 9u);
    q.runUntil(10);
    EXPECT_EQ(log.fired, (Fired{{10, 1}}));
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueueLane, PendingCountsLaneEntries)
{
    EventQueue q;
    LaneLog log{q, {}};
    EventQueue::LaneId lane = q.addLane<&LaneLog::hit>(10, &log);
    for (std::uint64_t t = 0; t < 3; ++t)
        q.scheduleLane(lane, t);
    q.schedule(4, [] {});
    EXPECT_EQ(q.pending(), 4u);
    EXPECT_EQ(q.laneDepth(), 3u);
    EXPECT_EQ(q.heapSize(), 1u);
    EXPECT_TRUE(q.runOne());
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(q.pending(), 2u);
    EXPECT_EQ(q.laneDepth(), 2u);
    q.runAll();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.executed(), 4u);
}

TEST(EventQueueLane, ForkedQueueWithLaneEntriesReplaysIdentically)
{
    EventQueue q;
    LaneLog log{q, {}};
    EventQueue::LaneId lane = q.addLane<&LaneLog::hit>(7, &log);
    // A self-rescheduling heap chain that keeps feeding the lane, so
    // lane entries exist at capture time and keep arriving after it.
    std::uint64_t next = 0;
    SmallFn<void()> tick;
    tick = [&] {
        q.scheduleLane(lane, next++);
        log.hit(1000 + next);
        if (q.now() < 40)
            q.schedule(q.now() + 3, tick);
    };
    q.schedule(0, tick);
    q.runUntil(20);
    ASSERT_GT(q.laneDepth(), 0u);

    SnapshotRegistry reg;
    reg.attach(q);
    Snapshot snap = reg.capture();
    std::uint64_t nextAtSnap = next;
    log.fired.clear();
    q.runAll();
    Fired first = log.fired;
    std::uint64_t executed = q.executed();
    ASSERT_FALSE(first.empty());

    reg.forkFrom(snap);
    next = nextAtSnap;
    log.fired.clear();
    EXPECT_EQ(q.now(), 20u);
    q.runAll();
    EXPECT_EQ(log.fired, first);
    EXPECT_EQ(q.executed(), executed);
}

TEST(EventQueueDeath, SchedulingOnAMissingLanePanics)
{
    EventQueue q;
    EXPECT_DEATH(q.scheduleLane(0, 1), "lane");
}

/** Property sweep: N events at random times always run sorted. */
class EventQueueOrderSweep : public ::testing::TestWithParam<int>
{};

TEST_P(EventQueueOrderSweep, AlwaysSorted)
{
    EventQueue q;
    std::mt19937_64 rng(GetParam());
    std::vector<Tick> fired;
    for (int i = 0; i < 500; ++i) {
        Tick t = rng() % 10000;
        q.schedule(t, [&fired, &q] { fired.push_back(q.now()); });
    }
    q.runAll();
    ASSERT_EQ(fired.size(), 500u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueOrderSweep,
                         ::testing::Values(1, 2, 3, 17, 99));

TEST(SmallFn, CopyDuplicatesCapturesInlineAndOnTheHeap)
{
    int hits = 0;
    SmallFn<void()> small = [&hits] { ++hits; };
    std::array<int, 32> big{};
    big[0] = 5;
    SmallFn<void()> large = [&hits, big] { hits += big[0]; };

    SmallFn<void()> small2 = small;
    SmallFn<void()> large2;
    large2 = large;
    small();
    small2();
    large();
    large2();
    EXPECT_EQ(hits, 12);
    SmallFn<void()> empty;
    SmallFn<void()> emptyCopy = empty;
    EXPECT_FALSE(emptyCopy);
}

TEST(SmallFn, ForwardsAnRvalueArgument)
{
    PayloadPool pool;
    performa::net::Frame f;
    f.bytes = 1500;
    f.payload = pool.make<int>(7);
    performa::net::Frame got;
    SmallFn<void(performa::net::Frame &&)> sink =
        [&got](performa::net::Frame &&in) { got = std::move(in); };
    sink(std::move(f));
    // Moved, not copied: the caller's handle is gone.
    EXPECT_FALSE(f.payload);
    ASSERT_TRUE(got.payload);
    EXPECT_EQ(*got.payload.get<int>(), 7);
    EXPECT_EQ(got.bytes, 1500u);
}

TEST(SmallFn, PassesAConstReferenceThrough)
{
    const std::string text = "remote DMA completion error";
    const std::string *seen = nullptr;
    SmallFn<void(const std::string &)> fn =
        [&seen](const std::string &s) { seen = &s; };
    fn(text);
    EXPECT_EQ(seen, &text);
}

TEST(SmallFn, ReturnsTheCallablesResult)
{
    std::uint64_t budget = 10;
    const SmallFn<bool(std::uint64_t)> pin = [&budget](std::uint64_t b) {
        if (b > budget)
            return false;
        budget -= b;
        return true;
    };
    EXPECT_TRUE(pin(6));
    EXPECT_FALSE(pin(6));
    EXPECT_TRUE(pin(4));
    EXPECT_EQ(budget, 0u);
}

namespace {

/** A @p Bytes-byte callable that returns its own address. */
template <std::size_t Bytes>
struct AddressProbe
{
    std::array<std::byte, Bytes> pad{};
    const void *operator()() const { return this; }
};

using ProbeFn = SmallFn<const void *()>;

/** @return true if @p fn's callable lives inside @p fn itself. */
bool
storedInline(const ProbeFn &fn)
{
    auto self = reinterpret_cast<std::uintptr_t>(&fn);
    auto at = reinterpret_cast<std::uintptr_t>(fn());
    return at >= self && at < self + sizeof fn;
}

} // namespace

TEST(SmallFn, FiftySixByteCaptureStaysInlineFiftySevenTakesTheHeap)
{
    static_assert(ProbeFn::inlineBytes == 56);
    static_assert(sizeof(AddressProbe<56>) == 56);
    static_assert(sizeof(AddressProbe<57>) == 57);
    ProbeFn fits = AddressProbe<56>{};
    ProbeFn spills = AddressProbe<57>{};
    EXPECT_TRUE(storedInline(fits));
    EXPECT_FALSE(storedInline(spills));

    ProbeFn fitsCopy = fits;
    ProbeFn spillsCopy;
    spillsCopy = spills;
    EXPECT_TRUE(storedInline(fitsCopy));
    EXPECT_FALSE(storedInline(spillsCopy));
    EXPECT_NE(spillsCopy(), spills()) << "a copy owns its own heap block";

    const void *spilledAt = spills();
    ProbeFn fitsMoved = std::move(fits);
    ProbeFn spillsMoved;
    spillsMoved = std::move(spills);
    EXPECT_TRUE(storedInline(fitsMoved));
    EXPECT_FALSE(storedInline(spillsMoved));
    EXPECT_EQ(spillsMoved(), spilledAt) << "a move takes over the block";
    EXPECT_FALSE(fits);
    EXPECT_FALSE(spills);
}

TEST(SmallFnDeathTest, CopyingANonCopyableCapturePanics)
{
    auto owned = std::make_unique<int>(1);
    SmallFn<void()> fn = [p = std::move(owned)] { (void)*p; };
    EXPECT_DEATH({ SmallFn<void()> copy = fn; }, "non-copyable");
}

TEST(SmallFnDeathTest, CopyingANonCopyableCaptureWithArgumentsPanics)
{
    auto owned = std::make_unique<int>(1);
    SmallFn<int(int, const std::string &)> fn =
        [p = std::move(owned)](int n, const std::string &s) {
            return *p + n + static_cast<int>(s.size());
        };
    EXPECT_EQ(fn(2, "abc"), 6);
    EXPECT_DEATH(
        { SmallFn<int(int, const std::string &)> copy = fn; },
        "non-copyable");
}
