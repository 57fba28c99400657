/**
 * @file
 * Unit and property tests for the LRU file cache, including the
 * dynamic-pinning behaviour that exposes VIA-PRESS-5 to the
 * pin-exhaustion fault.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "press/cache.hh"

using namespace performa;
using press::FileCache;

TEST(FileCache, InsertAndContains)
{
    FileCache c(4 * 100, 100); // 4 files
    EXPECT_TRUE(c.insert(1));
    EXPECT_TRUE(c.contains(1));
    EXPECT_FALSE(c.contains(2));
    EXPECT_EQ(c.size(), 1u);
    EXPECT_EQ(c.capacityFiles(), 4u);
}

TEST(FileCache, EvictsLeastRecentlyUsed)
{
    FileCache c(3 * 100, 100);
    std::vector<sim::FileId> evicted;
    auto cb = [&](sim::FileId f) { evicted.push_back(f); };
    c.insert(1, cb);
    c.insert(2, cb);
    c.insert(3, cb);
    c.insert(4, cb); // evicts 1
    EXPECT_EQ(evicted, (std::vector<sim::FileId>{1}));
    EXPECT_FALSE(c.contains(1));
    EXPECT_TRUE(c.contains(4));
}

TEST(FileCache, TouchProtectsFromEviction)
{
    FileCache c(3 * 100, 100);
    std::vector<sim::FileId> evicted;
    auto cb = [&](sim::FileId f) { evicted.push_back(f); };
    c.insert(1, cb);
    c.insert(2, cb);
    c.insert(3, cb);
    c.touch(1); // 2 is now LRU
    c.insert(4, cb);
    EXPECT_EQ(evicted, (std::vector<sim::FileId>{2}));
    EXPECT_TRUE(c.contains(1));
}

TEST(FileCache, ReinsertTouches)
{
    FileCache c(2 * 100, 100);
    c.insert(1);
    c.insert(2);
    EXPECT_TRUE(c.insert(1)); // bumps 1
    std::vector<sim::FileId> evicted;
    c.insert(3, [&](sim::FileId f) { evicted.push_back(f); });
    EXPECT_EQ(evicted, (std::vector<sim::FileId>{2}));
}

TEST(FileCache, PinHooksGateInsertion)
{
    std::uint64_t pinned = 0;
    const std::uint64_t limit = 250;
    FileCache c(10 * 100, 100);
    c.setPinHooks(
        [&](std::uint64_t b) {
            if (pinned + b > limit)
                return false;
            pinned += b;
            return true;
        },
        [&](std::uint64_t b) { pinned -= b; });

    EXPECT_TRUE(c.insert(1));
    EXPECT_TRUE(c.insert(2));
    // Third pin would exceed 250: the cache sheds LRU file 1 first.
    std::vector<sim::FileId> evicted;
    EXPECT_TRUE(c.insert(3, [&](sim::FileId f) { evicted.push_back(f); }));
    EXPECT_EQ(evicted, (std::vector<sim::FileId>{1}));
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(pinned, 200u);
}

TEST(FileCache, PinImpossibleReturnsFalse)
{
    FileCache c(10 * 100, 100);
    c.setPinHooks([](std::uint64_t) { return false; },
                  [](std::uint64_t) {});
    EXPECT_FALSE(c.insert(1));
    EXPECT_EQ(c.size(), 0u);
}

TEST(FileCache, ClearUnpinsEverything)
{
    std::uint64_t pinned = 0;
    FileCache c(10 * 100, 100);
    c.setPinHooks(
        [&](std::uint64_t b) {
            pinned += b;
            return true;
        },
        [&](std::uint64_t b) { pinned -= b; });
    c.insert(1);
    c.insert(2);
    EXPECT_EQ(pinned, 200u);
    c.clear();
    EXPECT_EQ(pinned, 0u);
    EXPECT_EQ(c.size(), 0u);
}

TEST(FileCache, ZeroCapacityRejectsEverything)
{
    FileCache c(0, 100);
    EXPECT_FALSE(c.insert(1));
}

TEST(FileCache, FilesIteratesMruFirst)
{
    FileCache c(3 * 100, 100);
    c.insert(1);
    c.insert(2);
    c.touch(1);
    EXPECT_EQ(c.files(), (std::vector<sim::FileId>{1, 2}));
}

TEST(FileCache, CopyKeepsLruOrderAndPinHooks)
{
    std::uint64_t pinned = 0;
    FileCache c(3 * 100, 100);
    c.setPinHooks(
        [&](std::uint64_t b) {
            pinned += b;
            return true;
        },
        [&](std::uint64_t b) { pinned -= b; });
    c.insert(1);
    c.insert(2);
    c.insert(3);
    c.touch(1);

    FileCache copy = c;
    EXPECT_EQ(copy.files(), (std::vector<sim::FileId>{1, 3, 2}));
    EXPECT_EQ(copy.size(), 3u);
    EXPECT_EQ(pinned, 300u) << "copying fires no pin hooks";

    // Eviction follows the copied LRU order and runs the copied hooks.
    std::vector<sim::FileId> evicted;
    copy.insert(4, [&](sim::FileId f) { evicted.push_back(f); });
    EXPECT_EQ(evicted, (std::vector<sim::FileId>{2}));
    EXPECT_EQ(pinned, 300u);
    copy.clear();
    EXPECT_EQ(pinned, 0u);
}

TEST(FileCache, MutatingACopyLeavesTheOriginalUntouched)
{
    FileCache c(4 * 100, 100);
    for (sim::FileId f : {5, 9, 2, 7})
        c.insert(f);

    FileCache copy = c;
    copy.touch(5);
    copy.insert(40); // evicts 9, grows the link array
    copy.evictLru();   // evicts 2
    EXPECT_EQ(copy.files(), (std::vector<sim::FileId>{40, 5, 7}));

    EXPECT_EQ(c.files(), (std::vector<sim::FileId>{7, 2, 9, 5}));
    EXPECT_TRUE(c.contains(9));
    EXPECT_FALSE(c.contains(40));
    EXPECT_EQ(c.size(), 4u);

    // Assigning back restores the original exactly.
    copy = c;
    EXPECT_EQ(copy.files(), c.files());
    EXPECT_FALSE(copy.contains(40));
    std::vector<sim::FileId> evicted;
    copy.insert(11, [&](sim::FileId f) { evicted.push_back(f); });
    EXPECT_EQ(evicted, (std::vector<sim::FileId>{5}));
}

/** Property sweep: size never exceeds capacity for any access mix. */
class CacheCapacitySweep : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(CacheCapacitySweep, SizeBounded)
{
    std::size_t cap = GetParam();
    FileCache c(cap * 10, 10);
    std::mt19937_64 rng(7);
    for (int i = 0; i < 2000; ++i) {
        c.insert(static_cast<sim::FileId>(rng() % 200));
        ASSERT_LE(c.size(), cap);
        if (i % 3 == 0)
            c.touch(static_cast<sim::FileId>(rng() % 200));
    }
    // The MRU-to-LRU walk visits exactly size() distinct files.
    std::vector<sim::FileId> order = c.files();
    EXPECT_EQ(order.size(), c.size());
    for (sim::FileId f : order)
        EXPECT_TRUE(c.contains(f));
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheCapacitySweep,
                         ::testing::Values(1, 7, 64, 199, 400));
