/**
 * @file
 * The PRESS server process on one node.
 *
 * PRESS is a locality-conscious cluster web server: any node receives
 * client requests (round-robin DNS), parses them and either serves
 * locally or forwards to the node caching the file; caching decisions
 * are broadcast so every node knows what the others cache; load is
 * piggy-backed on every intra-cluster message.
 *
 * The server code is identical across the five versions of Table 1 —
 * the differences come from the communication substrate it is given
 * (TCP vs the three VIA modes), from whether the heartbeat protocol
 * runs, and from whether cached file pages are dynamically pinned
 * (VIA-PRESS-5).
 *
 * Failure semantics implemented from the paper:
 *  - a broken intra-cluster connection means "that node failed":
 *    exclude it and reconfigure the ring;
 *  - TCP-PRESS-HB additionally treats 3 missed heartbeats from the
 *    ring predecessor as failure and announces it to the others;
 *  - fatal communication-library errors (EFAULT, descriptor errors,
 *    stream desync, remote DMA errors) are handled fail-fast: the
 *    process terminates and the node's daemon restarts it;
 *  - reconfiguration happens only at process start-up and on failure
 *    detection — sub-clusters never merge back spontaneously, which
 *    is why link/switch faults leave the cluster splintered until an
 *    operator resets it;
 *  - rejoin over TCP uses the broadcast-to-lowest-ID protocol, whose
 *    "disregard joiners we still believe are members" rule recreates
 *    the paper's rejoin race after node crashes;
 *  - rejoin over VIA simply re-establishes connections.
 */

#ifndef PERFORMA_PRESS_SERVER_HH
#define PERFORMA_PRESS_SERVER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "os/node.hh"
#include "os/service.hh"
#include "press/cache.hh"
#include "press/config.hh"
#include "press/directory.hh"
#include "press/disk.hh"
#include "press/messages.hh"
#include "press/server_stats.hh"
#include "proto/interpose.hh"
#include "sim/pool.hh"
#include "sim/ring_buffer.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace performa::press {

/** Observation hooks used by experiments to place stage markers;
 *  each defaults to a no-op. */
struct ServerHooks
{
    /** This server excluded @p failed from its cooperating set. */
    sim::SmallFn<void(sim::NodeId self, sim::NodeId failed)> onExclude =
        [](sim::NodeId, sim::NodeId) {};
    /** This server added @p joined to its cooperating set. */
    sim::SmallFn<void(sim::NodeId self, sim::NodeId joined)> onMemberUp =
        [](sim::NodeId, sim::NodeId) {};
    /** Fail-fast termination with the fatal error text. */
    sim::SmallFn<void(sim::NodeId self, const std::string &)> onFailFast =
        [](sim::NodeId, const std::string &) {};
    /** Rejoin attempts exhausted; continuing as a singleton. */
    sim::SmallFn<void(sim::NodeId self)> onGiveUp = [](sim::NodeId) {};
    /** Process (re)started. */
    sim::SmallFn<void(sim::NodeId self)> onStarted = [](sim::NodeId) {};
};

/**
 * One PRESS server process (see file comment).
 */
class Server : public osim::Service
{
  public:
    /**
     * @param node Host node (the server registers as its service).
     * @param cfg Deployment configuration.
     * @param comm Interposed communication endpoint (owned).
     * @param all_nodes Identities of every node in the static cluster
     * configuration file.
     */
    Server(osim::Node &node, const PressConfig &cfg,
           std::unique_ptr<proto::FaultInterposer> comm,
           std::vector<sim::NodeId> all_nodes);

    // osim::Service interface -----------------------------------------
    void start() override;
    void sigStop() override;
    void sigCont() override;
    void terminate(bool silent) override;
    bool alive() const override { return st_.alive; }

    /** Arm bad-parameter faults through the interposition layer. */
    proto::FaultInterposer &interposer() { return *comm_; }

    /** Next start() performs initial cluster formation, not a rejoin. */
    void markColdStart() { st_.coldStart = true; }

    void setHooks(ServerHooks hooks) { hooks_ = std::move(hooks); }

    // Introspection (tests, experiments) ------------------------------
    const std::set<sim::NodeId> &members() const { return st_.members; }
    bool stoppedBySignal() const { return st_.stopped; }
    std::size_t
    cachedFiles() const
    {
        return st_.cache ? st_.cache->size() : 0;
    }

    /** Monotonic per-server counters (survive process restarts). */
    const ServerStats &stats() const { return st_.stats; }

    /**
     * Pre-warm: place @p f directly in the cache and directory
     * (steady-state initialization used by experiments to skip long
     * warm-up phases). Call on every server: the caching node passes
     * itself as @p owner.
     */
    void prewarmFile(sim::FileId f, sim::NodeId owner);

    /** The node's disks (a snapshot attaches them with the server). */
    DiskArray &disk() { return *disk_; }

  private:
    friend class sim::SnapshotRegistry;

    // -- client side ---------------------------------------------------
    void onClientFrame(net::Frame &&f);
    void dispatch(const ClientRequestBody &req);
    void serveFromCache(const ClientRequestBody &req);
    void serveFromDisk(const ClientRequestBody &req);
    void forwardRequest(const ClientRequestBody &req, sim::NodeId target);
    /** Send the response and end the request (finishRequest()). */
    void respondToClient(const ClientRequestBody &req,
                         sim::Tick service_start);
    void finishRequest();

    // -- intra-cluster messages -----------------------------------------
    void onMessage(sim::NodeId peer, proto::AppMessage &&msg);
    /** Own @p msg's body and record the load piggy-backed on it. */
    template <class Body>
    sim::Rc<Body> receive(sim::NodeId peer, const proto::AppMessage &msg);
    void handleFwdRequest(const FwdRequestBody &body);
    void handleFileData(const FileDataBody &body);
    void sendFileData(const FwdRequestBody &fwd, sim::Tick service_start);

    // -- membership / reconfiguration ----------------------------------
    void onPeerConnected(sim::NodeId peer);
    void onPeerBroken(sim::NodeId peer, proto::BreakReason reason);
    void excludeNode(sim::NodeId failed);
    sim::NodeId ringSuccessor() const;
    sim::NodeId ringPredecessor() const;

    // -- rejoin ----------------------------------------------------------
    void beginColdFormation();
    void beginJoinProtocol();
    void joinTick();
    void onDatagram(sim::NodeId peer, std::uint32_t kind,
                    sim::RcAny payload);

    // -- heartbeats -------------------------------------------------------
    void hbSendTick();
    void hbCheckTick();

    // -- robust membership extension ---------------------------------------
    /**
     * Periodically probe configured nodes missing from the member set
     * and reconnect when they become reachable again (the "rigorous
     * membership algorithm" the paper calls for in Section 6.2).
     */
    void membershipProbeTick();

    // -- sending -----------------------------------------------------------
    /**
     * Send with main-loop blocking semantics: on WouldBlock the whole
     * main thread stalls (CPU paused) until the substrate reports
     * space again; queued messages flush in order.
     */
    void sendOrQueue(sim::NodeId peer, proto::AppMessage msg);
    void flushPending();
    /** One send call; WouldBlock stalls the main thread with @p msg
     *  queued first, a fatal status ends the process. */
    void trySend(sim::NodeId peer, proto::AppMessage &msg);
    /** @p body, stamped with the current load, as a message. */
    template <class Body>
    proto::AppMessage message(MsgType type, std::uint64_t bytes, Body body);
    /** Send make() to every other member, in id order. */
    template <class Make> void sendToMembers(Make make);
    void broadcastCacheUpdate(sim::FileId file, bool added);
    void sendCacheInfoTo(sim::NodeId peer);
    /** End a send stall (if any): flush the queued sends in order,
     *  then resume the main loop. */
    void unstall();
    void failFast(const std::string &reason);

    // -- cache helpers ------------------------------------------------------
    /** Insert into the local cache, broadcasting insert + evictions. */
    void cacheInsert(sim::FileId f);
    /** Least-loaded node of @p nodes that passes @p keep; ties go to
     *  the lowest id. invalidNode when none passes. */
    template <class Nodes, class Keep>
    sim::NodeId leastLoaded(const Nodes &nodes, Keep keep) const;
    std::uint32_t loadOf(sim::NodeId n) const;
    /** CPU cost of sending file @p f to a client. */
    sim::Tick replyCost(sim::FileId f) const;

    // -- main loop ---------------------------------------------------------
    /**
     * Queue work for the main coordinating thread. The main loop
     * stops draining while the thread is blocked on a send
     * (@c State::stalled) or SIGSTOPped; kernel and helper-thread work
     * (stack deliveries, acks, credit returns) keeps running on the
     * CPU regardless, mirroring PRESS's helper-thread structure.
     */
    void mainExec(sim::Tick cost, sim::SmallFn<void()> fn);
    void pumpMain();

    // -- lifecycle helpers -----------------------------------------------
    /** Run @p tick, skipped if the process restarted meanwhile. */
    void scheduleEpoch(sim::Tick delay, void (Server::*tick)());
    void sweepTick();


    osim::Node &node_;
    PressConfig cfg_;
    std::unique_ptr<proto::FaultInterposer> comm_;
    std::vector<sim::NodeId> allNodes_;
    ServerHooks hooks_;

    std::unique_ptr<DiskArray> disk_;

    /** A request forwarded to @c target, kept as the client sent it
     *  (latency stamps included) to answer or re-dispatch it. */
    struct PendingFwd
    {
        ClientRequestBody req;
        sim::NodeId target;
        sim::Tick forwardedAt;
    };
    using PendingTable = std::vector<PendingFwd>;
    /** First entry whose request id is not below @p id. */
    PendingTable::iterator pendingAt(sim::RequestId id);

    struct MainItem
    {
        sim::Tick cost;
        sim::SmallFn<void()> fn;
    };

    /**
     * Snapshot state: everything mutable in the process — membership,
     * directory, cache contents, queued work, counters. The comm
     * endpoint below us and the disks carry their own State.
     */
    struct State
    {
        // process state
        bool alive = false;
        bool stopped = false;
        bool coldStart = true;
        std::uint64_t epoch = 0;

        // cluster state
        std::set<sim::NodeId> members;
        /** Piggy-backed load per node id (0 = unknown). */
        std::vector<std::uint32_t> loads;
        Directory directory;
        /** Empty until the first start(); the pin hooks capture only
         *  this server and its VIA endpoint, so a copy stays valid. */
        std::optional<FileCache> cache;

        // request state
        /** Sorted by request id: excludeNode() re-dispatches entries
         *  in that order, so runs stay byte-identical. Reserved for
         *  acceptCap entries (each is an outstanding request), so it
         *  never allocates once constructed. */
        PendingTable pendingFwd;
        std::size_t outstanding = 0;

        // blocking-send state
        std::deque<std::pair<sim::NodeId, proto::AppMessage>>
            pendingSends;
        bool stalled = false;

        // main-loop queue (fn closures are copyable by construction)
        sim::RingBuffer<MainItem> mainQ;
        /** The item running on the CPU (empty when the loop is idle),
         *  parked here so the CPU completion captures no closure. */
        sim::SmallFn<void()> mainRunning;

        // join state
        int joinTries = 0;
        bool joinResponded = false;

        // heartbeat state
        sim::Tick lastHbAt = 0;

        // stats
        ServerStats stats;
        sim::Tick stallStartedAt = 0;
    };

    State st_;
};

} // namespace performa::press

#endif // PERFORMA_PRESS_SERVER_HH
