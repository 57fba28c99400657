/**
 * @file
 * Scenario builders for the paper's Section 6: compose phase-1
 * measured behaviours with fault loads into per-version
 * performability results — the same-fault-load comparison (Fig. 6),
 * the pessimistic VIA loads (Figs. 7-10), and the crossover factor
 * quoted in the abstract ("approximately 4 times the rate").
 */

#ifndef PERFORMA_CORE_SCENARIOS_HH
#define PERFORMA_CORE_SCENARIOS_HH

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "core/performability.hh"
#include "press/config.hh"

namespace performa::model {

/** Supplies the phase-1 behaviour of (version, fault kind). */
using BehaviorLookup = std::function<MeasuredBehavior(
    press::Version, fault::FaultKind)>;

/** Knobs for one modeling scenario. */
struct ScenarioOptions
{
    /** Per-node application-fault MTTF (Table 3 "var"). */
    double appMttfSec = 30 * 86400.0;

    /**
     * VIA-only additions (zero = absent), per Section 6.3:
     * transient packet drops modeled as process crashes
     * (cluster-wide rate), extra application faults from the harder
     * programming model (per-node rate, split by the app mix), and
     * system faults from immature hardware/firmware modeled as
     * switch crashes.
     */
    double viaPacketDropMttfSec = 0.0;
    double viaExtraAppMttfSec = 0.0;
    double viaSystemFaultMttfSec = 0.0;

    /**
     * Crossover experiments: multiply the rates of VIA link, switch
     * and application faults by this factor.
     */
    double viaRateScale = 1.0;

    EnvParams env;
    int numNodes = 4;
};

/**
 * Build the phase-2 model for one version under @p opts.
 * @p lookup provides the measured behaviours; the version's normal
 * throughput is taken from its app-crash behaviour.
 */
PerformabilityModel buildModel(press::Version v,
                               const BehaviorLookup &lookup,
                               const ScenarioOptions &opts);

/** Convenience: build + evaluate. */
PerfResult evaluateScenario(press::Version v,
                            const BehaviorLookup &lookup,
                            const ScenarioOptions &opts);

/**
 * Find the factor by which the VIA version's link/switch/application
 * fault rates must grow for its performability to drop to the TCP
 * version's (bisection on viaRateScale). Returns the factor, or the
 * search bound if no crossing exists below it.
 */
double crossoverFactor(press::Version via_version,
                       press::Version tcp_version,
                       const BehaviorLookup &lookup,
                       const ScenarioOptions &base_opts,
                       double max_factor = 64.0);

/**
 * Two versions that a throughput metric and its SLO counterpart rank
 * in opposite orders.
 */
struct RankingFlip
{
    /** The fault class whose unavailability shares flipped, or none
     *  for the overall P vs P_slo ranking. */
    std::optional<fault::FaultKind> fault;
    press::Version ahead;  ///< ahead on the throughput metric
    press::Version behind; ///< ahead on the SLO metric
    /** The two metrics of each version: P and P_slo overall, else
     *  the fault's throughput and SLO unavailability shares. */
    double tputAhead = 0, tputBehind = 0;
    double sloAhead = 0, sloBehind = 0;
};

/**
 * Every ranking flip between the per-version @p results: pairs that P
 * and P_slo order differently, then, per fault class, pairs that the
 * fault's unavailability share and its SLO unavailability share order
 * differently (a smaller share is better). Values are compared as the
 * SLO report prints them — P to one decimal, shares to 3 significant
 * digits — and values equal at that precision are ties: a tie on
 * either metric is never a flip.
 */
std::vector<RankingFlip>
rankingFlips(const std::vector<std::pair<press::Version, PerfResult>> &results);

} // namespace performa::model

#endif // PERFORMA_CORE_SCENARIOS_HH
