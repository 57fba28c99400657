/**
 * @file
 * Unit and property tests for the cluster-wide caching directory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "press/directory.hh"

using namespace performa;
using press::Directory;

namespace {

std::vector<sim::NodeId>
nodesOf(const Directory &d, sim::FileId f)
{
    auto set = d.nodesFor(f);
    return {set.begin(), set.end()};
}

} // namespace

TEST(Directory, AddAndQuery)
{
    Directory d;
    d.add(10, 1);
    d.add(10, 2);
    d.add(11, 1);
    EXPECT_EQ(d.nodesFor(10).size(), 2u);
    EXPECT_EQ(d.nodesFor(11).size(), 1u);
    EXPECT_TRUE(d.nodesFor(99).empty());
}

TEST(Directory, AddIsIdempotent)
{
    Directory d;
    d.add(10, 1);
    d.add(10, 1);
    EXPECT_EQ(d.nodesFor(10).size(), 1u);
}

TEST(Directory, RemoveSingleEntry)
{
    Directory d;
    d.add(10, 1);
    d.add(10, 2);
    d.remove(10, 1);
    EXPECT_EQ(nodesOf(d, 10), (std::vector<sim::NodeId>{2}));
    d.remove(10, 2);
    EXPECT_TRUE(d.nodesFor(10).empty());
}

TEST(Directory, RemoveMissingIsNoop)
{
    Directory d;
    d.add(10, 1);
    d.remove(10, 5);
    d.remove(77, 1);
    EXPECT_EQ(d.nodesFor(10).size(), 1u);
}

TEST(Directory, PurgeNodeRemovesAllItsEntries)
{
    Directory d;
    for (sim::FileId f = 0; f < 100; ++f) {
        d.add(f, 1);
        if (f % 2 == 0)
            d.add(f, 2);
    }
    EXPECT_EQ(d.entriesOf(1), 100u);
    d.purgeNode(1);
    EXPECT_EQ(d.entriesOf(1), 0u);
    for (sim::FileId f = 0; f < 100; ++f) {
        if (f % 2 == 0) {
            EXPECT_EQ(nodesOf(d, f), (std::vector<sim::NodeId>{2}));
        } else {
            EXPECT_TRUE(d.nodesFor(f).empty());
        }
    }
}

TEST(Directory, ClearEmptiesEverything)
{
    Directory d;
    d.add(1, 1);
    d.add(2, 2);
    d.clear();
    EXPECT_TRUE(d.nodesFor(1).empty());
    EXPECT_EQ(d.entriesOf(2), 0u);
}

TEST(Directory, NodesForIsAscendingNodeIdNotInsertionOrder)
{
    Directory d;
    d.add(10, 3);
    d.add(10, 0);
    d.add(10, 2);
    EXPECT_EQ(nodesOf(d, 10), (std::vector<sim::NodeId>{0, 2, 3}));
}

TEST(Directory, WideRowsSpanSeveralWords)
{
    // 200 nodes: 4 bitset words per file row.
    Directory d(200);
    const std::vector<sim::NodeId> nodes{0, 63, 64, 127, 128, 130, 199};
    for (sim::FileId f = 0; f < 40; ++f) {
        for (sim::NodeId n : nodes)
            d.add(f, n);
    }
    EXPECT_EQ(nodesOf(d, 7), nodes);
    EXPECT_EQ(d.nodesFor(7).size(), nodes.size());
    EXPECT_EQ(d.entriesOf(130), 40u);
    EXPECT_EQ(d.entriesOf(199), 40u);
    EXPECT_EQ(d.entriesOf(131), 0u);

    d.remove(7, 64);
    d.remove(7, 199);
    EXPECT_EQ(nodesOf(d, 7),
              (std::vector<sim::NodeId>{0, 63, 127, 128, 130}));
    EXPECT_EQ(d.entriesOf(64), 39u);

    d.purgeNode(130);
    EXPECT_EQ(d.entriesOf(130), 0u);
    EXPECT_EQ(d.entriesOf(128), 40u);
    EXPECT_EQ(d.entriesOf(0), 40u);
    for (sim::FileId f = 0; f < 40; ++f) {
        auto v = nodesOf(d, f);
        EXPECT_EQ(std::count(v.begin(), v.end(), 130), 0) << "file " << f;
    }
    EXPECT_EQ(nodesOf(d, 7), (std::vector<sim::NodeId>{0, 63, 127, 128}));
    EXPECT_EQ(nodesOf(d, 8),
              (std::vector<sim::NodeId>{0, 63, 64, 127, 128, 199}));

    // Only one high word left set: iteration skips the empty words.
    d.purgeNode(0);
    d.purgeNode(63);
    d.purgeNode(64);
    d.purgeNode(127);
    d.purgeNode(128);
    EXPECT_EQ(nodesOf(d, 8), (std::vector<sim::NodeId>{199}));
    EXPECT_TRUE(nodesOf(d, 7).empty());
    EXPECT_TRUE(d.nodesFor(7).empty());
}

TEST(Directory, CopyIsIndependent)
{
    Directory d(130);
    d.add(5, 129);
    d.add(6, 1);
    Directory c = d;
    c.remove(5, 129);
    c.add(900, 3);
    c.purgeNode(1);
    EXPECT_EQ(nodesOf(d, 5), (std::vector<sim::NodeId>{129}));
    EXPECT_EQ(nodesOf(d, 6), (std::vector<sim::NodeId>{1}));
    EXPECT_TRUE(d.nodesFor(900).empty());
    EXPECT_EQ(d.entriesOf(129), 1u);
    EXPECT_EQ(d.entriesOf(1), 1u);
    EXPECT_EQ(nodesOf(c, 900), (std::vector<sim::NodeId>{3}));
    EXPECT_EQ(c.entriesOf(129), 0u);
}

/** Property: the bitsets and per-node counts stay consistent under
 *  random ops, for narrow (one-word) and wide (three-word) rows. */
class DirectorySweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(DirectorySweep, IndicesConsistent)
{
    for (unsigned num_nodes : {4u, 130u}) {
        SCOPED_TRACE(::testing::Message() << num_nodes << " nodes");
        Directory d(num_nodes);
        std::mt19937_64 rng(GetParam());
        for (int i = 0; i < 3000; ++i) {
            auto f = static_cast<sim::FileId>(rng() % 50);
            auto n = static_cast<sim::NodeId>(rng() % num_nodes);
            switch (rng() % 3) {
              case 0:
                d.add(f, n);
                break;
              case 1:
                d.remove(f, n);
                break;
              case 2:
                if (i % 17 == 0)
                    d.purgeNode(n);
                break;
            }
        }
        // Cross-check: entriesOf(n) equals the number of files
        // listing n.
        for (sim::NodeId n = 0; n < num_nodes; ++n) {
            std::size_t count = 0;
            for (sim::FileId f = 0; f < 50; ++f) {
                auto v = nodesOf(d, f);
                count += std::count(v.begin(), v.end(), n);
            }
            EXPECT_EQ(count, d.entriesOf(n)) << "node " << n;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectorySweep,
                         ::testing::Values(1u, 7u, 1234u));
