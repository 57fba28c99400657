/**
 * @file
 * Unit tests for sim::RingBuffer: FIFO order across wrap-around,
 * growth, indexing, move-only elements, destruction accounting, and
 * capacity-preserving copies.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "sim/ring_buffer.hh"

using performa::sim::RingBuffer;

TEST(RingBuffer, PushPopIsFifo)
{
    RingBuffer<int> rb;
    EXPECT_TRUE(rb.empty());
    for (int i = 0; i < 5; ++i)
        rb.push_back(i);
    EXPECT_EQ(rb.size(), 5u);
    EXPECT_EQ(rb.front(), 0);
    EXPECT_EQ(rb.back(), 4);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(rb.front(), i);
        rb.pop_front();
    }
    EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, SteadyStreamWrapsWithoutGrowing)
{
    RingBuffer<int> rb;
    rb.reserve(8);
    std::size_t cap = rb.capacity();
    // A push/pop stream many times the capacity must wrap in place.
    int next_out = 0;
    for (int i = 0; i < 1000; ++i) {
        rb.push_back(i);
        if (rb.size() == 4) {
            EXPECT_EQ(rb.front(), next_out++);
            rb.pop_front();
        }
    }
    EXPECT_EQ(rb.capacity(), cap);
    while (!rb.empty()) {
        EXPECT_EQ(rb.front(), next_out++);
        rb.pop_front();
    }
    EXPECT_EQ(next_out, 1000);
}

TEST(RingBuffer, GrowthPreservesOrderAcrossTheSeam)
{
    RingBuffer<int> rb;
    rb.reserve(8);
    // Rotate so the live window straddles the physical end, then force
    // a relocation and check nothing got reordered.
    for (int i = 0; i < 6; ++i)
        rb.push_back(-1);
    for (int i = 0; i < 6; ++i)
        rb.pop_front();
    for (int i = 0; i < 20; ++i)
        rb.push_back(i);
    EXPECT_GE(rb.capacity(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(rb[static_cast<std::size_t>(i)], i);
}

TEST(RingBuffer, ReserveRoundsUpAndNeverShrinks)
{
    RingBuffer<int> rb;
    rb.reserve(100);
    std::size_t cap = rb.capacity();
    EXPECT_GE(cap, 100u);
    EXPECT_EQ(cap & (cap - 1), 0u); // power of two
    rb.reserve(10);
    EXPECT_EQ(rb.capacity(), cap);
}

TEST(RingBuffer, HoldsMoveOnlyElements)
{
    RingBuffer<std::unique_ptr<int>> rb;
    for (int i = 0; i < 12; ++i)
        rb.push_back(std::make_unique<int>(i));
    for (int i = 0; i < 12; ++i) {
        ASSERT_TRUE(rb.front());
        EXPECT_EQ(*rb.front(), i);
        rb.pop_front();
    }
}

TEST(RingBuffer, ClearAndDestructorReleaseElements)
{
    auto counter = std::make_shared<int>(0);
    struct Probe
    {
        std::shared_ptr<int> c;
        ~Probe()
        {
            if (c)
                ++*c;
        }
        Probe(std::shared_ptr<int> c) : c(std::move(c)) {}
        Probe(Probe &&) = default;
    };
    {
        RingBuffer<Probe> rb;
        for (int i = 0; i < 3; ++i)
            rb.push_back(Probe(counter));
        rb.clear();
        EXPECT_EQ(*counter, 3);
        EXPECT_TRUE(rb.empty());
        for (int i = 0; i < 2; ++i)
            rb.push_back(Probe(counter));
    }
    EXPECT_EQ(*counter, 5); // destructor drains what clear() didn't
}

TEST(RingBuffer, MoveTransfersOwnership)
{
    RingBuffer<int> a;
    a.push_back(7);
    a.push_back(8);
    RingBuffer<int> b = std::move(a);
    EXPECT_TRUE(a.empty());
    ASSERT_EQ(b.size(), 2u);
    EXPECT_EQ(b.front(), 7);
    a = std::move(b);
    ASSERT_EQ(a.size(), 2u);
    EXPECT_EQ(a.back(), 8);
}

TEST(RingBuffer, CopyKeepsOrderAndReservesTheSourceCapacity)
{
    RingBuffer<int> src(64);
    for (int i = 0; i < 40; ++i)
        src.push_back(i);
    for (int i = 0; i < 30; ++i)
        src.pop_front(); // head mid-buffer: the copy must unwrap it
    RingBuffer<int> copy = src;
    EXPECT_EQ(copy.capacity(), src.capacity());
    ASSERT_EQ(copy.size(), 10u);
    for (std::size_t i = 0; i < copy.size(); ++i)
        EXPECT_EQ(copy[i], src[i]);

    // Assigning into a ring at least as large reuses its buffer.
    RingBuffer<int> dst(128);
    dst.push_back(-1);
    dst = src;
    EXPECT_EQ(dst.capacity(), 128u);
    ASSERT_EQ(dst.size(), 10u);
    EXPECT_EQ(dst.front(), 30);
    EXPECT_EQ(dst.back(), 39);
}
