/**
 * @file
 * Fixed-bin HDR-style latency histogram plus a per-second, per-stage
 * timeline of them.
 *
 * LatencyHistogram is log-linear bucketed: values below 2^S land in
 * width-1 buckets; each octave [2^k, 2^{k+1}) above that is split
 * into 2^(S-1) equal buckets, bounding the relative quantile error at
 * 2^(1-S) (~3% for the default S = 6). All storage is allocated in
 * the constructor — record() and merge() never touch the heap, which
 * lets the workload generators record per-request latencies inside
 * the allocation-free message path.
 *
 * StageLatencyTimeline keeps one histogram per (latency stage, wall
 * slice) so tail latencies can be sliced against the fault timeline
 * (the 7-stage windows of exp/stages.cc), plus a cumulative histogram
 * per stage for whole-run quantiles.
 */

#ifndef PERFORMA_SIM_LATENCY_HISTOGRAM_HH
#define PERFORMA_SIM_LATENCY_HISTOGRAM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace performa::sim {

/** Bucket layout; two histograms merge only when these match. */
struct LatencyHistogramConfig
{
    /** Sub-bucket resolution: 2^subBucketBits buckets per octave
     *  doubling; relative error <= 2^(1-subBucketBits). */
    unsigned subBucketBits = 6;
    /** Values at or above this saturate into the overflow bucket
     *  (microseconds; default covers well past the 6 s timeout). */
    std::uint64_t maxValue = sec(64);

    bool
    operator==(const LatencyHistogramConfig &o) const
    {
        return subBucketBits == o.subBucketBits && maxValue == o.maxValue;
    }
};

class LatencyHistogram
{
  public:
    explicit LatencyHistogram(LatencyHistogramConfig cfg = {});

    /** Record one (or @p n) sample(s) of @p value_us microseconds. */
    void
    record(std::uint64_t value_us, std::uint64_t n = 1)
    {
        counts_[indexFor(value_us)] += n;
        total_ += n;
        sum_ += value_us * n;
        if (value_us > max_)
            max_ = value_us;
    }

    /**
     * Quantile @p q in [0, 1] as an upper bound on the true value
     * (the containing bucket's highest equivalent value, clamped to
     * the largest recorded sample). NaN when empty.
     */
    double quantile(double q) const;

    /** Samples with value <= @p value_us (bucket-granular: counts
     *  every bucket whose upper bound is <= value_us). */
    std::uint64_t countAtOrBelow(std::uint64_t value_us) const;

    /** Fraction of samples <= @p value_us; 1.0 when empty (an empty
     *  window carries no evidence of an SLO violation). */
    double
    fractionAtOrBelow(std::uint64_t value_us) const
    {
        if (total_ == 0)
            return 1.0;
        return static_cast<double>(countAtOrBelow(value_us)) /
               static_cast<double>(total_);
    }

    /** Add @p other's samples into this histogram (same config). */
    void merge(const LatencyHistogram &other);

    void clear();

    std::uint64_t count() const { return total_; }
    bool empty() const { return total_ == 0; }
    std::uint64_t maxRecorded() const { return max_; }
    double
    mean() const
    {
        return total_ ? static_cast<double>(sum_) /
                            static_cast<double>(total_)
                      : 0.0;
    }

    const LatencyHistogramConfig &config() const { return cfg_; }

    /** Highest value mapping to bucket @p idx (inclusive bound). */
    std::uint64_t bucketUpperBound(std::size_t idx) const;

  private:
    std::size_t indexFor(std::uint64_t v) const;

    LatencyHistogramConfig cfg_;
    std::uint64_t linearMax_;   ///< 2^subBucketBits
    unsigned topOctave_;        ///< floor(log2(maxValue - 1)), >= S
    std::vector<std::uint64_t> counts_; ///< last bucket = overflow
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
};

/** Request-lifetime stages a client can attribute latency to. */
enum class LatencyStage : int
{
    Connect = 0, ///< request sent -> accepted by a server
    Queue,       ///< accepted -> file fetch begins (incl. forwarding)
    Service,     ///< fetch begins -> response at the client
    Total,       ///< request sent -> response at the client
};

inline constexpr int numLatencyStages = 4;

const char *latencyStageName(LatencyStage s);

/**
 * Per-stage latency histograms recorded per wall-clock slice (default
 * one second), mirroring the per-second throughput series.
 */
class StageLatencyTimeline
{
  public:
    struct Config
    {
        LatencyHistogramConfig hist;
        Tick sliceWidth = sec(1);
        /** Slices to pre-construct; recording past the reservation
         *  grows the slice vectors (allocates). */
        std::size_t reserveSlices = 0;
    };

    StageLatencyTimeline();
    explicit StageLatencyTimeline(Config cfg);

    /** Record a @p value_us sample completed at time @p at. */
    void
    record(LatencyStage s, Tick at, std::uint64_t value_us)
    {
        std::size_t idx = static_cast<std::size_t>(at / cfg_.sliceWidth);
        auto &v = slices_[static_cast<int>(s)];
        if (idx >= v.size())
            growTo(idx + 1);
        v[idx].record(value_us);
        cumulative_[static_cast<int>(s)].record(value_us);
    }

    /** Whole-run histogram for one stage. */
    const LatencyHistogram &
    cumulative(LatencyStage s) const
    {
        return cumulative_[static_cast<int>(s)];
    }

    /** Merged histogram over slices overlapping [from, to). */
    LatencyHistogram window(LatencyStage s, Tick from, Tick to) const;

    std::size_t sliceCount() const { return slices_[0].size(); }
    const Config &config() const { return cfg_; }

  private:
    void growTo(std::size_t n);

    Config cfg_;
    std::array<std::vector<LatencyHistogram>, numLatencyStages> slices_;
    std::array<LatencyHistogram, numLatencyStages> cumulative_;
};

} // namespace performa::sim

#endif // PERFORMA_SIM_LATENCY_HISTOGRAM_HH
