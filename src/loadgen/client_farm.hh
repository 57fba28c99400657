/**
 * @file
 * The client population: open-loop Poisson request generation over a
 * Zipf-popular file set, round-robin DNS across the server nodes, and
 * the paper's request timeouts (2 s to connect, 6 s to complete).
 * Successes and failures are recorded into the Tally's per-second
 * time series — the raw material of the paper's throughput plots and
 * of the availability metric (fraction of requests served
 * successfully) — and every served request's stamped per-stage
 * latency goes into its StageLatencyTimeline.
 *
 * A LoadProfileSpec can modulate the offered rate (diurnal curves,
 * flash crowds); profile-driven draws come from a split RNG stream,
 * so the default profile reproduces the historical draw sequence
 * exactly.
 */

#ifndef PERFORMA_LOADGEN_CLIENT_FARM_HH
#define PERFORMA_LOADGEN_CLIENT_FARM_HH

#include <cstdint>
#include <vector>

#include "loadgen/generator.hh"
#include "loadgen/load_profile.hh"
#include "net/network.hh"
#include "sim/latency_histogram.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "sim/time_series.hh"
#include "sim/types.hh"

namespace performa::loadgen {

/** Workload parameters. */
struct WorkloadConfig
{
    double requestRate = 6000.0; ///< aggregate offered load (req/s)
    std::size_t numFiles = 60000; ///< working set (uniform size)
    double zipfAlpha = 0.8;      ///< web-trace-like popularity skew
    sim::Tick connectTimeout = sim::sec(2);
    sim::Tick requestTimeout = sim::sec(6);
    std::uint64_t requestBytes = 300;
};

/**
 * Drives the cluster through the client network. One instance models
 * the whole set of client machines.
 */
class ClientFarm : public LoadGenerator
{
  public:
    ClientFarm(sim::Simulation &s, net::Network &client_net,
               std::vector<net::PortId> server_ports,
               std::vector<net::PortId> client_ports, WorkloadConfig cfg,
               LoadProfileSpec profile = {});

    /** Begin generating requests (runs until stop()). */
    void start() override;

    /** Stop generating new requests. */
    void stop() override;

    const Tally &tally() const override { return st_.tally; }

    /** In-flight (not yet answered or timed out) request count. */
    std::size_t pendingCount() const;

    const WorkloadConfig &config() const { return cfg_; }
    const LoadProfileSpec &profile() const { return profile_; }
    const sim::ZipfSampler &popularity() const { return zipf_; }

    void registerWith(sim::SnapshotRegistry &reg) override;

  private:
    friend class sim::SnapshotRegistry;

    void arrivalTick();
    void issueRequest();
    void onResponse(net::Frame &&f);
    void expire(sim::RequestId id);

    /** The live flag of @p id (in [base, nextReq)): word and bit. */
    std::uint64_t &liveWord(sim::RequestId id);
    static std::uint64_t
    liveBit(sim::RequestId id)
    {
        return std::uint64_t{1} << (id & 63);
    }

    /** Double the live-flag ring, keeping every flag in the window. */
    void growLiveRing();

    /** Profile draws come from the split stream; the default profile
     *  keeps drawing from the shared, historical stream. */
    sim::Rng &genRng() { return shaped_ ? st_.splitRng : sim_.rng(); }

    sim::Simulation &sim_;
    net::Network &net_;
    std::vector<net::PortId> serverPorts_;
    std::vector<net::PortId> clientPorts_;
    WorkloadConfig cfg_;
    LoadProfileSpec profile_;
    bool shaped_; ///< profile_ modulates this farm
    sim::ZipfSampler zipf_;
    sim::EventQueue::LaneId expiryLane_;

    /** Snapshot state: generation counters, in-flight requests, RNG
     *  stream and everything recorded. */
    struct State
    {
        sim::Rng splitRng;
        bool running = false;
        std::uint64_t generation = 0;
        sim::RequestId nextReq = 1;
        /** Oldest request whose expiry has not fired: ids below it
         *  are answered or failed. */
        sim::RequestId base = 1;
        std::size_t rrServer = 0;
        std::size_t rrClient = 0;
        /**
         * Power-of-two ring of in-flight flags, one bit per id in
         * [base, nextReq), at bit (id mod ring size). A set bit is a
         * request neither answered nor expired; bits outside the
         * window are clear.
         */
        std::vector<std::uint64_t> live;
        Tally tally;
    };

    State st_;
};

} // namespace performa::loadgen

#endif // PERFORMA_LOADGEN_CLIENT_FARM_HH
