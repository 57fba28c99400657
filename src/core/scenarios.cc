#include "core/scenarios.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "sim/logging.hh"

namespace performa::model {

namespace {

constexpr double kHourSec = 3600.0;
constexpr double kAppMttr = 180.0;

/**
 * -1, 0 or 1 as @p a is below, equal to or above @p b once both are
 * rounded as printf's @p fmt (one %.*f or %.*g) prints them.
 */
int
orderAsPrinted(const char *fmt, int precision, double a, double b)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt, precision, a);
    double ra = std::strtod(buf, nullptr);
    std::snprintf(buf, sizeof buf, fmt, precision, b);
    double rb = std::strtod(buf, nullptr);
    return (ra > rb) - (ra < rb);
}

} // namespace

PerformabilityModel
buildModel(press::Version v, const BehaviorLookup &lookup,
           const ScenarioOptions &opts)
{
    FaultLoadParams params;
    params.numNodes = opts.numNodes;
    params.appMttfSec = opts.appMttfSec;
    std::vector<FaultClass> load = table3FaultLoad(params);

    bool via = press::isVia(v);

    if (via && opts.viaRateScale != 1.0) {
        scaleRates(load,
                   {fault::FaultKind::LinkDown,
                    fault::FaultKind::SwitchDown,
                    fault::FaultKind::AppCrash,
                    fault::FaultKind::AppHang,
                    fault::FaultKind::BadParamNull,
                    fault::FaultKind::BadParamOffPtr,
                    fault::FaultKind::BadParamOffSize},
                   opts.viaRateScale);
    }

    if (via && opts.viaPacketDropMttfSec > 0.0) {
        // Transient packet loss resets the channel: behaves like a
        // process crash on VIA; TCP retransmission absorbs it. Drops
        // happen per NIC/link, so the rate is per node.
        load.push_back({"packet drop", fault::FaultKind::PacketDrop,
                        static_cast<double>(opts.numNodes),
                        opts.viaPacketDropMttfSec, kAppMttr});
    }
    if (via && opts.viaExtraAppMttfSec > 0.0) {
        const fault::FaultKind kinds[] = {
            fault::FaultKind::AppCrash,
            fault::FaultKind::AppHang,
            fault::FaultKind::BadParamNull,
            fault::FaultKind::BadParamOffPtr,
            fault::FaultKind::BadParamOffSize,
        };
        for (auto k : kinds) {
            load.push_back({"extra app bugs", k,
                            static_cast<double>(opts.numNodes),
                            opts.viaExtraAppMttfSec / appFaultShare(k),
                            kAppMttr});
        }
    }
    if (via && opts.viaSystemFaultMttfSec > 0.0) {
        // Hardware/firmware bugs in the SAN modeled as switch crashes.
        load.push_back({"system fault", fault::FaultKind::SwitchDown,
                        1.0, opts.viaSystemFaultMttfSec, kHourSec});
    }

    double tn = lookup(v, fault::FaultKind::AppCrash).normalTput;
    if (tn <= 0)
        FATAL("behaviour lookup returned no normal throughput for ",
              press::versionName(v));

    PerformabilityModel model(tn);
    for (const auto &fc : load) {
        // PacketDrop reuses the app-crash behaviour ("modeled as
        // application process crashes"); for TCP it has no effect, so
        // it is only ever added on VIA versions above.
        fault::FaultKind behaviour_kind =
            fc.kind == fault::FaultKind::PacketDrop
                ? fault::FaultKind::AppCrash
                : fc.kind;
        model.addFault(fc, lookup(v, behaviour_kind));
    }
    return model;
}

PerfResult
evaluateScenario(press::Version v, const BehaviorLookup &lookup,
                 const ScenarioOptions &opts)
{
    return buildModel(v, lookup, opts).evaluate(opts.env);
}

double
crossoverFactor(press::Version via_version, press::Version tcp_version,
                const BehaviorLookup &lookup,
                const ScenarioOptions &base_opts, double max_factor)
{
    ScenarioOptions tcp_opts = base_opts;
    tcp_opts.viaRateScale = 1.0;
    double p_tcp =
        evaluateScenario(tcp_version, lookup, tcp_opts).performability;

    auto p_via = [&](double k) {
        ScenarioOptions o = base_opts;
        o.viaRateScale = k;
        return evaluateScenario(via_version, lookup, o).performability;
    };

    if (p_via(1.0) <= p_tcp)
        return 1.0; // VIA never ahead to begin with
    if (p_via(max_factor) > p_tcp)
        return max_factor; // no crossing below the bound

    double lo = 1.0, hi = max_factor;
    for (int i = 0; i < 60; ++i) {
        double mid = 0.5 * (lo + hi);
        if (p_via(mid) > p_tcp)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

std::vector<RankingFlip>
rankingFlips(const std::vector<std::pair<press::Version, PerfResult>> &results)
{
    std::vector<RankingFlip> flips;
    // Flips within one metric pair: m[v] holds version v's throughput
    // metric and its SLO counterpart, printed as fmt/precision; sign
    // is +1 when higher is better and -1 when lower is.
    auto scan = [&](std::optional<fault::FaultKind> k,
                    const std::vector<std::pair<double, double>> &m,
                    const char *fmt, int precision, int sign) {
        for (std::size_t i = 0; i < m.size(); ++i) {
            for (std::size_t j = i + 1; j < m.size(); ++j) {
                int tput = sign * orderAsPrinted(fmt, precision,
                                                 m[i].first, m[j].first);
                int slo = sign * orderAsPrinted(fmt, precision,
                                                m[i].second, m[j].second);
                if (tput == 0 || slo == 0 || tput == slo)
                    continue;
                std::size_t a = tput > 0 ? i : j;
                std::size_t b = tput > 0 ? j : i;
                flips.push_back({k, results[a].first, results[b].first,
                                 m[a].first, m[b].first, m[a].second,
                                 m[b].second});
            }
        }
    };

    std::vector<std::pair<double, double>> m;
    for (const auto &r : results)
        m.push_back({r.second.performability, r.second.sloPerformability});
    scan(std::nullopt, m, "%.*f", 1, +1);

    for (fault::FaultKind k : fault::allFaultKinds) {
        m.clear();
        for (const auto &r : results) {
            double u = 0, su = 0;
            for (const FaultContribution &c : r.second.breakdown) {
                if (c.kind == k) {
                    u += c.unavailability;
                    su += c.sloUnavailability;
                }
            }
            m.push_back({u, su});
        }
        scan(k, m, "%.*g", 3, -1);
    }
    return flips;
}

} // namespace performa::model
