/**
 * @file
 * Session-based closed-loop clients: a fixed population of users who
 * connect to a server, issue a burst of requests over the same
 * connection with think-time pauses, and then leave (a new session
 * takes the seat immediately). Complements the paper's open-loop farm
 * with the connection-reuse traffic shape of real browsers, and is
 * the load half of the "millions of users" heavy-traffic engine.
 *
 * Steady state is allocation-free: the session table is a fixed
 * vector, responses are matched by an index encoded in the request id
 * (no map), expiries go on two fixed-delay event-queue lanes (connect
 * and request timeout) and are never cancelled — an expiry whose
 * request was answered finds a newer seq and does nothing — and
 * latencies go into pre-reserved histograms.
 *
 * All randomness (think times, session lengths, file picks) draws
 * from a split RNG stream, never from the shared sim.rng().
 */

#ifndef PERFORMA_LOADGEN_SESSION_FARM_HH
#define PERFORMA_LOADGEN_SESSION_FARM_HH

#include <cstdint>
#include <vector>

#include "loadgen/client_farm.hh"
#include "loadgen/generator.hh"
#include "loadgen/load_profile.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"
#include "sim/latency_histogram.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "sim/time_series.hh"

namespace performa::loadgen {

class SessionFarm : public LoadGenerator
{
  public:
    SessionFarm(sim::Simulation &s, net::Network &client_net,
                std::vector<net::PortId> server_ports,
                std::vector<net::PortId> client_ports,
                WorkloadConfig cfg, LoadProfileSpec profile);

    void start() override;
    void stop() override;

    const Tally &tally() const override { return st_.tally; }

    std::size_t sessionCount() const { return st_.sessions.size(); }
    /** Sessions ended so far (completed or abandoned on timeout). */
    std::uint64_t
    completedSessions() const
    {
        return st_.completedSessions;
    }
    const WorkloadConfig &config() const { return cfg_; }

    void registerWith(sim::SnapshotRegistry &reg) override;

  private:
    friend class sim::SnapshotRegistry;

    struct Session
    {
        std::size_t server = 0;   ///< sticky: the reused connection
        std::uint32_t remaining = 0; ///< requests left in the session
        std::uint32_t seq = 0;    ///< per-session request sequence
        sim::Tick sentAt = 0;
        bool inFlight = false;
        bool firstRequest = true; ///< first on this connection
    };

    void beginSession(std::size_t idx);
    void think(std::size_t idx);
    void sendRequest(std::size_t idx);
    void onResponse(net::Frame &&f);
    /** Timeout of request @p req (an encodeReq() id); ignored unless
     *  it is still its session's request in flight. */
    void expire(sim::RequestId req);

    sim::RequestId
    encodeReq(std::size_t idx, std::uint32_t seq) const
    {
        return (static_cast<sim::RequestId>(idx + 1) << 32) | seq;
    }

    sim::Simulation &sim_;
    net::Network &net_;
    std::vector<net::PortId> serverPorts_;
    std::vector<net::PortId> clientPorts_;
    WorkloadConfig cfg_;
    LoadProfileSpec profile_;
    sim::ZipfSampler zipf_;
    sim::EventQueue::LaneId connectLane_;
    sim::EventQueue::LaneId requestLane_;

    /** Snapshot state: the session table, RNG stream and everything
     *  recorded. Pending expiries live in the event queue's lanes. */
    struct State
    {
        sim::Rng rng;
        bool running = false;
        std::uint64_t generation = 0;
        std::size_t rrServer = 0;
        std::vector<Session> sessions;
        Tally tally;
        std::uint64_t completedSessions = 0;
    };

    State st_;
};

} // namespace performa::loadgen

#endif // PERFORMA_LOADGEN_SESSION_FARM_HH
