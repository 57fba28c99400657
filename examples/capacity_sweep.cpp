/**
 * @file
 * Capacity sweep: drive one PRESS version at increasing offered load
 * and print served throughput plus request-level availability — the
 * saturation curve behind "near-peak throughput" in Table 1, and a
 * template for using the workload generator standalone.
 *
 *   $ ./capacity_sweep [version 0-4]
 */

#include <cstdio>
#include <cstdlib>

#include "press/cluster.hh"
#include "sim/simulation.hh"
#include "loadgen/client_farm.hh"
#include "loadgen/session_farm.hh"

using namespace performa;

namespace {

struct Point
{
    double offered;
    double served;
    double availability;
};

Point
measure(press::Version v, double rate)
{
    sim::Simulation sim(11);
    press::ClusterConfig ccfg;
    ccfg.press.version = v;
    press::Cluster cluster(sim, ccfg);

    loadgen::WorkloadConfig wcfg;
    wcfg.requestRate = rate;
    wcfg.numFiles = 60000;
    loadgen::ClientFarm farm(sim, cluster.clientNet(),
                        cluster.serverClientPorts(),
                        cluster.clientMachinePorts(), wcfg);

    cluster.startAll();
    sim.runUntil(sim::sec(2));
    cluster.prewarm(wcfg.numFiles);
    farm.start();
    sim.runUntil(sim::sec(50));

    Point p;
    p.offered = farm.tally().offered.meanRate(sim::sec(20), sim::sec(50));
    p.served = farm.tally().served.meanRate(sim::sec(20), sim::sec(50));
    p.availability =
        farm.tally().totalOffered
            ? static_cast<double>(farm.tally().totalServed) /
                  static_cast<double>(farm.tally().totalOffered)
            : 0.0;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    int vi = argc > 1 ? std::atoi(argv[1]) : 0;
    press::Version v = press::allVersions[vi % 5];
    double peak = press::paperThroughput(v);

    std::printf("capacity sweep: %s (paper near-peak %.0f req/s)\n\n",
                press::versionName(v), peak);
    std::printf("open loop (Poisson arrivals, as in the paper):\n");
    std::printf("%10s %10s %14s\n", "offered", "served", "availability");
    for (double frac : {0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25}) {
        Point p = measure(v, frac * peak);
        std::printf("%7.0f/s %7.0f/s %13.2f%%%s\n", p.offered, p.served,
                    100 * p.availability,
                    frac >= 1.0 ? "   (saturated)" : "");
    }

    std::printf("\nclosed loop (fixed user population, 50 ms think "
                "time):\n");
    std::printf("%10s %10s %14s\n", "users", "served", "mean latency");
    for (std::size_t users : {50, 200, 400, 800}) {
        sim::Simulation sim(13);
        press::ClusterConfig ccfg;
        ccfg.press.version = v;
        press::Cluster cluster(sim, ccfg);
        loadgen::WorkloadConfig wcfg;
        wcfg.numFiles = 60000;
        // One request per session: every user thinks, asks, and is
        // replaced by a fresh user — a classic closed loop.
        loadgen::LoadProfileSpec users_profile =
            *loadgen::profileByName("sessions");
        users_profile.sessionCount = users;
        users_profile.meanRequestsPerSession = 1;
        users_profile.meanThink = sim::msec(50);
        loadgen::SessionFarm farm(sim, cluster.clientNet(),
                                  cluster.serverClientPorts(),
                                  cluster.clientMachinePorts(), wcfg,
                                  users_profile);
        cluster.startAll();
        sim.runUntil(sim::sec(2));
        cluster.prewarm(wcfg.numFiles);
        farm.start();
        sim.runUntil(sim::sec(40));
        const loadgen::Tally &t = farm.tally();
        std::printf("%10zu %7.0f/s %11.2f ms\n", users,
                    t.served.meanRate(sim::sec(15), sim::sec(40)),
                    t.timeline.cumulative(sim::LatencyStage::Total).mean() /
                        1000.0);
    }
    std::printf("\n(closed loops self-throttle: latency, not failure "
                "count, absorbs saturation)\n");
    return 0;
}
