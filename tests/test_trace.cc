/**
 * @file
 * Tests for the synthetic trace generator and the paper's
 * file-size-flattening step.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "loadgen/client_farm.hh"
#include "loadgen/trace.hh"

using namespace performa;
using namespace performa::loadgen;

TEST(SyntheticTrace, GeneratesRequestedPopulation)
{
    TraceParams p;
    p.numFiles = 5000;
    SyntheticTrace t = SyntheticTrace::generate(p);
    EXPECT_EQ(t.numFiles(), 5000u);
    EXPECT_GT(t.meanBytes(), 0.0);
}

TEST(SyntheticTrace, DeterministicForSeed)
{
    TraceParams p;
    p.numFiles = 1000;
    SyntheticTrace a = SyntheticTrace::generate(p, 3);
    SyntheticTrace b = SyntheticTrace::generate(p, 3);
    EXPECT_EQ(a.sizes(), b.sizes());
    SyntheticTrace c = SyntheticTrace::generate(p, 4);
    EXPECT_NE(a.sizes(), c.sizes());
}

TEST(SyntheticTrace, SizesAreHeavyTailed)
{
    TraceParams p;
    p.numFiles = 20000;
    SyntheticTrace t = SyntheticTrace::generate(p);
    double mean = t.meanBytes();
    auto sizes = t.sizes();
    std::sort(sizes.begin(), sizes.end());
    double median = static_cast<double>(sizes[sizes.size() / 2]);
    // Heavy tail: mean well above median.
    EXPECT_GT(mean, 1.5 * median);
    // And the max is clipped.
    EXPECT_LE(sizes.back(), p.maxFileBytes);
    EXPECT_GE(sizes.front(), 64u);
}

TEST(SyntheticTrace, MeanInWebRange)
{
    TraceParams p;
    SyntheticTrace t = SyntheticTrace::generate(p);
    // Late-90s web file populations: single-digit to tens of KB mean.
    EXPECT_GT(t.meanBytes(), 3000.0);
    EXPECT_LT(t.meanBytes(), 40000.0);
}

TEST(SyntheticTrace, FlattenPreservesCountAndMean)
{
    TraceParams p;
    p.numFiles = 8000;
    SyntheticTrace t = SyntheticTrace::generate(p);
    FlatFileSet f = t.flatten();
    EXPECT_EQ(f.numFiles, 8000u);
    EXPECT_NEAR(static_cast<double>(f.fileBytes), t.meanBytes(), 1.0);
    EXPECT_DOUBLE_EQ(f.zipfAlpha, t.zipfAlpha());
    // The flattened set's footprint matches the raw total closely.
    double raw = static_cast<double>(t.totalBytes());
    double flat = static_cast<double>(f.totalBytes());
    EXPECT_NEAR(flat / raw, 1.0, 0.01);
}

TEST(SyntheticTrace, ApplyFileSetWiresBothSides)
{
    TraceParams p;
    p.numFiles = 12345;
    p.zipfAlpha = 0.9;
    FlatFileSet fs = SyntheticTrace::generate(p).flatten();
    press::ClusterConfig cluster;
    WorkloadConfig workload;
    applyFileSet(fs, cluster, workload);
    EXPECT_EQ(cluster.press.fileBytes, fs.fileBytes);
    EXPECT_EQ(workload.numFiles, 12345u);
    EXPECT_DOUBLE_EQ(workload.zipfAlpha, 0.9);
}
