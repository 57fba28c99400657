/**
 * @file
 * Synthetic web-trace generation. The paper drove PRESS with a trace
 * gathered at Rutgers, chosen for its large working set, and then
 * "modified the file set so that all files have the same size (the
 * average size of the original file set)" to keep throughput stable.
 *
 * We have no access to the original trace, so this module builds the
 * equivalent: a synthetic file population with a web-like
 * heavy-tailed size distribution (lognormal body + Pareto tail) and
 * Zipf popularity, plus the same flattening step the authors applied.
 * The flattened set is what the ClientFarm drives.
 */

#ifndef PERFORMA_LOADGEN_TRACE_HH
#define PERFORMA_LOADGEN_TRACE_HH

#include <cstdint>
#include <vector>

#include "press/cluster.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace performa::loadgen {

struct WorkloadConfig;

/** Parameters of the synthetic raw trace. */
struct TraceParams
{
    std::size_t numFiles = 68000;
    double zipfAlpha = 0.8;

    // Web-like size mix (Crovella/Barford-style): lognormal body with
    // a Pareto tail.
    double logMeanBytes = 8.6;  ///< lognormal mu (log of bytes)
    double logSigma = 1.2;      ///< lognormal sigma
    double paretoTailProb = 0.07;
    double paretoAlpha = 1.2;
    std::uint64_t paretoMinBytes = 30000;
    std::uint64_t maxFileBytes = 2u << 20; ///< clip outliers
};

/** The flattened file set the experiments use. */
struct FlatFileSet
{
    std::size_t numFiles = 0;
    std::uint64_t fileBytes = 0;  ///< uniform (the raw mean)
    double zipfAlpha = 0.8;
    std::uint64_t totalBytes() const
    {
        return numFiles * fileBytes;
    }
};

/**
 * A generated raw file population (sizes per file, popularity rank =
 * file id).
 */
class SyntheticTrace
{
  public:
    /** Generate a raw population from @p params. */
    static SyntheticTrace generate(const TraceParams &params,
                                   std::uint64_t seed = 7);

    const std::vector<std::uint64_t> &sizes() const { return sizes_; }
    std::size_t numFiles() const { return sizes_.size(); }
    double zipfAlpha() const { return alpha_; }

    /** Mean file size in bytes (what the flattening uses). */
    double meanBytes() const;

    /** Total population size in bytes (working-set footprint). */
    std::uint64_t totalBytes() const;

    /**
     * The paper's flattening step: same number of files, same
     * popularity skew, every file resized to the raw mean.
     */
    FlatFileSet flatten() const;

  private:
    std::vector<std::uint64_t> sizes_;
    double alpha_ = 0.8;
};

/**
 * Apply a flattened file set consistently to both sides of a
 * deployment: the servers' uniform file size and the clients' file
 * population and popularity skew.
 */
void applyFileSet(const FlatFileSet &fs, press::ClusterConfig &cluster,
                  struct WorkloadConfig &workload);

} // namespace performa::loadgen

#endif // PERFORMA_LOADGEN_TRACE_HH
