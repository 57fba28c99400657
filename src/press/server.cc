#include "press/server.hh"

#include <algorithm>
#include <utility>

#include "proto/via.hh"
#include "sim/logging.hh"

namespace performa::press {

Server::Server(osim::Node &node, const PressConfig &cfg,
               std::unique_ptr<proto::FaultInterposer> comm,
               std::vector<sim::NodeId> all_nodes)
    : node_(node), cfg_(cfg), comm_(std::move(comm)),
      allNodes_(std::move(all_nodes))
{
    // Per-node state is indexed by node id.
    std::size_t slots = allNodes_.empty()
        ? 0
        : std::size_t(*std::max_element(allNodes_.begin(),
                                        allNodes_.end())) + 1;
    st_.directory = Directory(slots);
    st_.loads.assign(slots, 0);

    disk_ = std::make_unique<DiskArray>(node_.simulation(),
                                        cfg_.disksPerNode, cfg_.diskSeek,
                                        cfg_.diskBytesPerUsec);

    node_.clientNet().setHandler(node_.clientPort(),
        [this](net::Frame &&f) { onClientFrame(std::move(f)); });

    proto::CommCallbacks cbs;
    cbs.onMessage = [this](sim::NodeId peer, proto::AppMessage &&m) {
        onMessage(peer, std::move(m));
    };
    cbs.onPeerConnected = [this](sim::NodeId peer) {
        if (st_.alive)
            onPeerConnected(peer);
    };
    cbs.onPeerBroken = [this](sim::NodeId peer, proto::BreakReason r) {
        if (st_.alive)
            onPeerBroken(peer, r);
    };
    cbs.onSendReady = [this] {
        if (st_.alive)
            onSendReady();
    };
    cbs.onFatalError = [this](const std::string &reason) {
        if (st_.alive)
            failFast(reason);
    };
    cbs.onDatagram = [this](sim::NodeId peer, std::uint32_t kind,
                            sim::RcAny payload) {
        if (st_.alive && !st_.stopped)
            onDatagram(peer, kind, std::move(payload));
    };
    comm_->setCallbacks(std::move(cbs));

    node_.attachService(this);
}

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

void
Server::scheduleEpoch(sim::Tick delay, void (Server::*tick)())
{
    std::uint64_t e = st_.epoch;
    node_.simulation().scheduleIn(delay, [this, e, tick] {
        if (e == st_.epoch && st_.alive)
            (this->*tick)();
    });
}

void
Server::start()
{
    ++st_.epoch;
    st_.alive = true;
    st_.stopped = false;
    st_.stalled = false;
    st_.outstanding = 0;
    st_.pendingFwd.clear();
    st_.pendingSends.clear();
    st_.directory.clear();
    st_.members.clear();
    st_.members.insert(node_.id());
    std::fill(st_.loads.begin(), st_.loads.end(), 0);
    st_.joinTries = 0;
    st_.joinResponded = false;
    st_.lastHbAt = node_.simulation().now();

    // Fresh process: fresh cache. For VIA-PRESS-5 every cached file's
    // pages are registered (pinned) with the VIA provider — either
    // per file (the paper's implementation, exposed to pin
    // exhaustion) or as one static region at start-up (the Section 7
    // pre-allocation extension).
    st_.cache.emplace(cfg_.cacheBytes, cfg_.fileBytes);
    auto *via = dynamic_cast<proto::ViaComm *>(&comm_->inner());
    if (usesDynamicPinning(cfg_.version) && !cfg_.staticPinning) {
        if (!via)
            PANIC("dynamic pinning requires the VIA substrate");
        st_.cache->setPinHooks(
            [this, via](std::uint64_t bytes) {
                bool ok = via->registerMemory(bytes);
                if (!ok)
                    ++st_.stats.pinFailures;
                return ok;
            },
            [via](std::uint64_t bytes) { via->deregisterMemory(bytes); });
    }

    comm_->start();
    if (via && via->started() && usesDynamicPinning(cfg_.version) &&
        cfg_.staticPinning) {
        // Pre-pin the whole cache region once; later inserts need no
        // registration calls, so pin-exhaustion faults cannot shrink
        // the cache.
        if (!via->registerMemory(cfg_.cacheBytes)) {
            failFast("VIA static cache registration failed");
            return;
        }
    }
    if (via && !via->started()) {
        // Start-up registration failed (pin budget exhausted): the
        // process cannot run; the daemon will retry.
        failFast("VIA registration failed at start-up");
        return;
    }

    if (st_.coldStart) {
        st_.coldStart = false;
        beginColdFormation();
    } else if (isVia(cfg_.version)) {
        // "The rejoining node simply tries to reestablish its
        // connection with all other nodes."
        for (sim::NodeId p : allNodes_) {
            if (p != node_.id())
                comm_->connect(p);
        }
    } else {
        beginJoinProtocol();
    }

    if (usesHeartbeats(cfg_.version)) {
        scheduleEpoch(cfg_.hbPeriod, &Server::hbSendTick);
        scheduleEpoch(cfg_.hbPeriod * 2, &Server::hbCheckTick);
    }
    if (cfg_.robustMembership) {
        scheduleEpoch(cfg_.membershipProbeInterval,
                      &Server::membershipProbeTick);
    }
    scheduleEpoch(sim::sec(2), &Server::sweepTick);

    hooks_.onStarted(node_.id());
}

void
Server::terminate(bool silent)
{
    if (!st_.alive)
        return;
    ++st_.epoch;
    st_.alive = false;
    if (st_.stalled)
        st_.stats.stalledTime += node_.simulation().now() - st_.stallStartedAt;
    st_.stalled = false;
    st_.stopped = false;
    st_.mainQ.clear();
    st_.mainRunning.reset();
    st_.pendingSends.clear();
    st_.pendingFwd.clear();
    st_.outstanding = 0;
    if (st_.cache)
        st_.cache->clear();
    if (silent)
        comm_->vanish();
    else
        comm_->shutdown();
}

void
Server::sigStop()
{
    if (!st_.alive || st_.stopped)
        return;
    st_.stopped = true;
    comm_->setAppReceiving(false);
}

void
Server::sigCont()
{
    if (!st_.alive || !st_.stopped)
        return;
    st_.stopped = false;
    comm_->setAppReceiving(true);
    pumpMain();
}

void
Server::failFast(const std::string &reason)
{
    hooks_.onFailFast(node_.id(), reason);
    terminate(/*silent=*/false);
    node_.serviceSelfExited(osim::ExitReason::FailFast);
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

void
Server::onClientFrame(net::Frame &&f)
{
    if (!st_.alive || st_.stopped || !node_.up())
        return; // client connect times out
    if (f.kind != ClientRequest || !f.payload)
        return;
    if (st_.outstanding >= cfg_.acceptCap) {
        ++st_.stats.refused;
        return; // listen backlog full: connection refused/dropped
    }
    ++st_.outstanding;
    ++st_.stats.accepted;
    ClientRequestBody req = *f.payload.get<ClientRequestBody>();
    req.acceptedAt = node_.simulation().now();
    mainExec(cfg_.costs.acceptParse + cfg_.costs.clientConn,
             [this, req] { dispatch(req); });
}

sim::Tick
clientSendCost(const PressCosts &costs, std::uint64_t bytes)
{
    return costs.clientSendFixed +
           static_cast<sim::Tick>(costs.clientSendPerKb *
                                  static_cast<double>(bytes) / 1024.0);
}

template <class Nodes, class Keep>
sim::NodeId
Server::leastLoaded(const Nodes &nodes, Keep keep) const
{
    sim::NodeId best = sim::invalidNode;
    std::uint32_t best_load = 0;
    for (sim::NodeId n : nodes) {
        if (!keep(n))
            continue;
        std::uint32_t l = loadOf(n);
        if (best == sim::invalidNode || l < best_load ||
            (l == best_load && n < best)) {
            best = n;
            best_load = l;
        }
    }
    return best;
}

void
Server::dispatch(const ClientRequestBody &req)
{
    if (st_.cache->contains(req.file)) {
        ++st_.stats.localHits;
        serveFromCache(req);
        return;
    }

    // Locality-conscious distribution: forward to a node caching the
    // file, least-loaded first.
    sim::NodeId target = leastLoaded(
        st_.directory.nodesFor(req.file), [this](sim::NodeId n) {
            return n != node_.id() && st_.members.count(n);
        });
    if (target != sim::invalidNode) {
        ++st_.stats.forwarded;
        forwardRequest(req, target);
        return;
    }

    // Nobody caches it: the least-loaded member fetches it from disk
    // and becomes its caching node.
    sim::NodeId svc =
        leastLoaded(st_.members, [](sim::NodeId) { return true; });
    if (svc == node_.id()) {
        ++st_.stats.localMisses;
        serveFromDisk(req);
    } else {
        ++st_.stats.forwarded;
        forwardRequest(req, svc);
    }
}

void
Server::serveFromCache(const ClientRequestBody &req)
{
    st_.cache->touch(req.file);
    sim::Tick svc = node_.simulation().now();
    std::uint64_t resp = cfg_.sizeOf(req.file) + cfg_.fileRespOverheadBytes;
    mainExec(cfg_.costs.cacheRead + clientSendCost(cfg_.costs, resp),
        [this, req, svc] {
            respondToClient(req.req, req.replyPort, req.file,
                            req.sentAt, req.acceptedAt, svc);
            finishRequest();
        });
}

void
Server::serveFromDisk(const ClientRequestBody &req)
{
    std::uint64_t e = st_.epoch;
    sim::Tick svc = node_.simulation().now();
    disk_->read(cfg_.sizeOf(req.file), [this, e, req, svc] {
        if (e != st_.epoch || !st_.alive)
            return;
        std::uint64_t resp =
            cfg_.sizeOf(req.file) + cfg_.fileRespOverheadBytes;
        mainExec(cfg_.costs.diskReadCpu + cfg_.costs.cacheRead +
                 clientSendCost(cfg_.costs, resp),
            [this, req, svc] {
                cacheInsert(req.file);
                respondToClient(req.req, req.replyPort, req.file,
                                req.sentAt, req.acceptedAt, svc);
                finishRequest();
            });
    });
}

void
Server::forwardRequest(const ClientRequestBody &req, sim::NodeId target)
{
    PendingFwd p;
    p.file = req.file;
    p.clientPort = req.replyPort;
    p.target = target;
    p.sentAt = node_.simulation().now();
    p.req = req.req;
    p.reqSentAt = req.sentAt;
    p.reqAcceptedAt = req.acceptedAt;
    st_.pendingFwd[req.req] = p;

    FwdRequestBody body;
    body.senderLoad = static_cast<std::uint32_t>(st_.outstanding);
    body.req = req.req;
    body.file = req.file;
    body.initial = node_.id();
    body.clientPort = req.replyPort;

    proto::AppMessage m;
    m.type = MsgFwdRequest;
    m.bytes = cfg_.fwdReqBytes;
    m.body = node_.simulation().makePayload<FwdRequestBody>(body);

    mainExec(comm_->sendCost(m.bytes),
        [this, target, m = std::move(m)]() mutable {
            sendOrQueue(target, std::move(m));
        });
}

void
Server::respondToClient(sim::RequestId req, std::uint32_t reply_port,
                        sim::FileId file, sim::Tick sent_at,
                        sim::Tick accepted_at, sim::Tick service_start)
{
    net::Frame f;
    f.srcPort = node_.clientPort();
    f.dstPort = reply_port;
    f.proto = net::Proto::Client;
    f.kind = ClientResponse;
    f.bytes = cfg_.sizeOf(file) + cfg_.fileRespOverheadBytes;
    auto body = node_.simulation().makePayload<ClientResponseBody>();
    body->req = req;
    body->sentAt = sent_at;
    body->acceptedAt = accepted_at;
    body->serviceStartAt = service_start;
    f.payload = std::move(body);
    node_.clientNet().send(std::move(f));
    ++st_.stats.responses;
}

void
Server::finishRequest()
{
    if (st_.outstanding > 0)
        --st_.outstanding;
}

// ---------------------------------------------------------------------
// Intra-cluster messages
// ---------------------------------------------------------------------

void
Server::onMessage(sim::NodeId peer, proto::AppMessage &&msg)
{
    if (!st_.alive)
        return;
    // The receive helper thread consumed the message: return the
    // descriptor/credit (PRESS's explicit flow-control messages).
    comm_->consumed(peer);

    if (!st_.members.count(peer))
        return; // stale traffic from an excluded node

    switch (msg.type) {
      case MsgFwdRequest: {
        auto *body = msg.body.get<FwdRequestBody>();
        st_.loads[peer] = body->senderLoad;
        handleFwdRequest(peer, *body);
        break;
      }
      case MsgFileData: {
        auto *body = msg.body.get<FileDataBody>();
        st_.loads[peer] = body->senderLoad;
        handleFileData(*body);
        break;
      }
      case MsgCacheUpdate: {
        auto *body = msg.body.get<CacheUpdateBody>();
        st_.loads[peer] = body->senderLoad;
        CacheUpdateBody b = *body;
        mainExec(cfg_.costs.broadcastHandle, [this, b] {
            if (b.added)
                st_.directory.add(b.file, b.node);
            else
                st_.directory.remove(b.file, b.node);
        });
        break;
      }
      case MsgCacheInfo: {
        // The handler runs later on the CPU: keep an owning handle.
        auto b = msg.body.cast<CacheInfoBody>();
        st_.loads[peer] = b->senderLoad;
        sim::Tick cost = sim::usec(1) + b->files.size() / 5;
        mainExec(cost, [this, b] {
            for (sim::FileId f : b->files)
                st_.directory.add(f, b->node);
        });
        break;
      }
      case MsgMemberDown: {
        auto *body = msg.body.get<MemberDownBody>();
        st_.loads[peer] = body->senderLoad;
        if (st_.members.count(body->failed) && body->failed != node_.id())
            excludeNode(body->failed);
        break;
      }
      default:
        PANIC("press: unknown message type ", msg.type);
    }
}

void
Server::handleFwdRequest(sim::NodeId peer, const FwdRequestBody &body)
{
    sim::Tick svc = node_.simulation().now();
    if (st_.cache->contains(body.file)) {
        ++st_.stats.fwdServed;
        st_.cache->touch(body.file);
        std::uint64_t data =
            cfg_.sizeOf(body.file) + cfg_.fileRespOverheadBytes;
        FwdRequestBody b = body;
        mainExec(cfg_.costs.cacheRead + comm_->sendCost(data),
            [this, b, svc] {
                sendFileData(b.initial, b.req, b.file, b.clientPort, svc);
            });
        (void)peer;
        return;
    }

    // Stale directory at the initial node, or we were picked as the
    // caching node: fetch from disk and start caching the file.
    ++st_.stats.fwdMisses;
    std::uint64_t e = st_.epoch;
    FwdRequestBody b = body;
    disk_->read(cfg_.sizeOf(body.file), [this, e, b, svc] {
        if (e != st_.epoch || !st_.alive)
            return;
        std::uint64_t data =
            cfg_.sizeOf(b.file) + cfg_.fileRespOverheadBytes;
        mainExec(cfg_.costs.diskReadCpu + comm_->sendCost(data),
            [this, b, svc] {
                cacheInsert(b.file);
                sendFileData(b.initial, b.req, b.file, b.clientPort, svc);
            });
    });
}

void
Server::sendFileData(sim::NodeId initial, sim::RequestId req,
                     sim::FileId file, std::uint32_t client_port,
                     sim::Tick service_start)
{
    FileDataBody body;
    body.senderLoad = static_cast<std::uint32_t>(st_.outstanding);
    body.req = req;
    body.file = file;
    body.clientPort = client_port;
    body.serviceStartAt = service_start;

    proto::AppMessage m;
    m.type = MsgFileData;
    m.bytes = cfg_.sizeOf(file) + cfg_.fileRespOverheadBytes;
    m.body = node_.simulation().makePayload<FileDataBody>(body);
    sendOrQueue(initial, std::move(m));
}

void
Server::handleFileData(const FileDataBody &body)
{
    auto it = st_.pendingFwd.find(body.req);
    if (it == st_.pendingFwd.end())
        return; // request was re-dispatched or swept; ignore late data
    std::uint32_t port = it->second.clientPort;
    sim::Tick sent = it->second.reqSentAt;
    sim::Tick acc = it->second.reqAcceptedAt;
    st_.pendingFwd.erase(it);

    std::uint64_t resp = cfg_.sizeOf(body.file) + cfg_.fileRespOverheadBytes;
    sim::RequestId req = body.req;
    sim::FileId file = body.file;
    sim::Tick svc = body.serviceStartAt;
    mainExec(clientSendCost(cfg_.costs, resp),
        [this, req, port, file, sent, acc, svc] {
            respondToClient(req, port, file, sent, acc, svc);
            finishRequest();
        });
}

// ---------------------------------------------------------------------
// Membership and reconfiguration
// ---------------------------------------------------------------------

void
Server::onPeerConnected(sim::NodeId peer)
{
    bool fresh = st_.members.insert(peer).second;
    st_.loads[peer] = 0;
    recomputeRing();
    hooks_.onMemberUp(node_.id(), peer);
    if (fresh && st_.cache && st_.cache->size() > 0)
        sendCacheInfoTo(peer);
}

void
Server::onPeerBroken(sim::NodeId peer, proto::BreakReason)
{
    if (st_.members.count(peer))
        excludeNode(peer);
}

void
Server::excludeNode(sim::NodeId failed)
{
    st_.members.erase(failed);
    st_.directory.purgeNode(failed);
    st_.loads[failed] = 0;
    comm_->disconnect(failed);
    recomputeRing();

    // Drop queued traffic to the dead node.
    std::erase_if(st_.pendingSends,
                  [failed](const auto &p) { return p.first == failed; });

    // Re-dispatch in-flight requests that were forwarded to it.
    std::vector<PendingFwd> redo;
    for (auto it = st_.pendingFwd.begin(); it != st_.pendingFwd.end();) {
        if (it->second.target == failed) {
            redo.push_back(it->second);
            it = st_.pendingFwd.erase(it);
        } else {
            ++it;
        }
    }
    for (const auto &p : redo) {
        ClientRequestBody req;
        req.req = p.req;
        req.file = p.file;
        req.replyPort = p.clientPort;
        req.sentAt = p.reqSentAt;
        req.acceptedAt = p.reqAcceptedAt;
        mainExec(sim::usec(5), [this, req] { dispatch(req); });
    }

    // If the main loop was stalled on a send, unstick it: the queued
    // sends to the dead peer were just dropped, and the blocked one
    // (if it targeted this peer) now fails with NotConnected.
    if (st_.stalled) {
        st_.stalled = false;
        st_.stats.stalledTime += node_.simulation().now() - st_.stallStartedAt;
        flushPending();
        pumpMain();
    }

    hooks_.onExclude(node_.id(), failed);
}

void
Server::recomputeRing()
{
    st_.lastHbAt = node_.simulation().now();
}

sim::NodeId
Server::ringSuccessor() const
{
    if (st_.members.size() < 2)
        return sim::invalidNode;
    auto it = st_.members.upper_bound(node_.id());
    if (it == st_.members.end())
        it = st_.members.begin();
    return *it;
}

sim::NodeId
Server::ringPredecessor() const
{
    if (st_.members.size() < 2)
        return sim::invalidNode;
    auto it = st_.members.find(node_.id());
    if (it == st_.members.begin())
        return *st_.members.rbegin();
    return *std::prev(it);
}

// ---------------------------------------------------------------------
// Cold formation and rejoin
// ---------------------------------------------------------------------

void
Server::beginColdFormation()
{
    for (sim::NodeId p : allNodes_) {
        if (p < node_.id())
            comm_->connect(p);
    }
}

void
Server::beginJoinProtocol()
{
    st_.joinTries = 0;
    st_.joinResponded = false;
    joinTick();
}

void
Server::joinTick()
{
    if (st_.joinResponded)
        return;
    if (st_.joinTries >= cfg_.joinAttempts) {
        // "After the recovered node gives up trying to rejoin": it
        // keeps serving as an independent singleton until an operator
        // intervenes.
        hooks_.onGiveUp(node_.id());
        return;
    }
    ++st_.joinTries;
    for (sim::NodeId p : allNodes_) {
        if (p != node_.id())
            comm_->sendDatagram(p, DgJoinReq);
    }
    scheduleEpoch(cfg_.joinRetryInterval, &Server::joinTick);
}

void
Server::onDatagram(sim::NodeId peer, std::uint32_t kind,
                   sim::RcAny payload)
{
    switch (kind) {
      case DgHeartbeat:
        if (peer == ringPredecessor())
            st_.lastHbAt = node_.simulation().now();
        break;
      case DgJoinReq: {
        if (st_.members.count(peer)) {
            // The joiner is still in our member list: we have not yet
            // detected its crash, so its rejoin messages are
            // disregarded (the paper's rejoin race).
            return;
        }
        if (*st_.members.begin() != node_.id())
            return; // only the lowest-ID active member replies
        auto resp = node_.simulation().makePayload<JoinRespBody>();
        resp->members.assign(st_.members.begin(), st_.members.end());
        comm_->sendDatagram(peer, DgJoinResp, std::move(resp));
        break;
      }
      case DgJoinResp: {
        if (st_.joinResponded || !payload)
            return;
        st_.joinResponded = true;
        auto *resp = payload.get<JoinRespBody>();
        for (sim::NodeId m : resp->members) {
            if (m != node_.id())
                comm_->connect(m);
        }
        break;
      }
      default:
        break;
    }
}

// ---------------------------------------------------------------------
// Heartbeats
// ---------------------------------------------------------------------

void
Server::hbSendTick()
{
    scheduleEpoch(cfg_.hbPeriod, &Server::hbSendTick);
    if (st_.stopped || !node_.up())
        return;
    sim::NodeId succ = ringSuccessor();
    if (succ != sim::invalidNode)
        comm_->sendDatagram(succ, DgHeartbeat);
}

void
Server::hbCheckTick()
{
    scheduleEpoch(cfg_.hbPeriod, &Server::hbCheckTick);
    if (st_.stopped || !node_.up())
        return;
    sim::NodeId pred = ringPredecessor();
    if (pred == sim::invalidNode)
        return;
    sim::Tick now = node_.simulation().now();
    sim::Tick limit =
        cfg_.hbPeriod * static_cast<sim::Tick>(cfg_.hbMissThreshold);
    if (now - st_.lastHbAt <= limit)
        return;

    // Three consecutive heartbeats missed: declare the predecessor
    // failed and tell the rest of the (believed) cluster.
    excludeNode(pred);
    // A send never changes the member set, and a fatal one ends the
    // process, so the set can be walked in place.
    for (sim::NodeId m : st_.members) {
        if (m == node_.id() || !st_.alive)
            continue;
        MemberDownBody body;
        body.senderLoad = static_cast<std::uint32_t>(st_.outstanding);
        body.failed = pred;
        proto::AppMessage msg;
        msg.type = MsgMemberDown;
        msg.bytes = cfg_.cacheUpdateBytes;
        msg.body = node_.simulation().makePayload<MemberDownBody>(body);
        sendOrQueue(m, std::move(msg));
    }
}

// ---------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------

void
Server::mainExec(sim::Tick cost, sim::SmallFn<void()> fn)
{
    if (!st_.alive)
        return;
    st_.mainQ.push_back(MainItem{cost, std::move(fn)});
    pumpMain();
}

void
Server::pumpMain()
{
    if (st_.mainRunning || st_.stalled || st_.stopped || !st_.alive ||
        st_.mainQ.empty())
        return;
    sim::Tick cost = st_.mainQ.front().cost;
    st_.mainRunning = std::move(st_.mainQ.front().fn);
    st_.mainQ.pop_front();
    std::uint64_t e = st_.epoch;
    node_.cpu().exec(cost, [this, e] {
        if (e != st_.epoch)
            return; // process restarted; terminate() emptied mainRunning
        // Move out before invoking: the loop is idle again, and work
        // the item queues starts at once, parked in mainRunning.
        sim::SmallFn<void()> fn = std::move(st_.mainRunning);
        if (st_.alive)
            fn();
        pumpMain();
    });
}

// ---------------------------------------------------------------------
// Robust membership extension
// ---------------------------------------------------------------------

void
Server::membershipProbeTick()
{
    scheduleEpoch(cfg_.membershipProbeInterval, &Server::membershipProbeTick);
    if (st_.stopped || !node_.up())
        return;
    for (sim::NodeId p : allNodes_) {
        // Only the higher-ID side of a missing pair probes (the same
        // asymmetry as cold-start formation); simultaneous connects
        // from both ends would race each other's endpoint state.
        if (p >= node_.id() || st_.members.count(p) || comm_->connected(p))
            continue;
        // Reconnection doubles as the membership repair: established
        // connections re-add the peer and exchange caching info
        // through the regular onPeerConnected path.
        comm_->connect(p);
    }
}

// ---------------------------------------------------------------------
// Sending with main-loop blocking semantics
// ---------------------------------------------------------------------

void
Server::sendOrQueue(sim::NodeId peer, proto::AppMessage msg)
{
    if (!st_.alive)
        return;
    if (st_.stalled) {
        st_.pendingSends.emplace_back(peer, std::move(msg));
        return;
    }
    switch (comm_->send(peer, msg, {})) {
      case proto::SendStatus::Ok:
        break;
      case proto::SendStatus::WouldBlock:
        // The send-thread queue is full: the main thread blocks.
        st_.pendingSends.emplace_front(peer, std::move(msg));
        st_.stalled = true;
        ++st_.stats.stallEvents;
        st_.stallStartedAt = node_.simulation().now();
        break;
      case proto::SendStatus::NotConnected:
        break; // membership changes will clean this up
      case proto::SendStatus::Efault:
        failFast("send() returned EFAULT (NULL data pointer)");
        break;
      case proto::SendStatus::Fatal:
        failFast("communication library descriptor error");
        break;
    }
}

void
Server::onSendReady()
{
    if (!st_.stalled)
        return;
    st_.stalled = false;
    st_.stats.stalledTime += node_.simulation().now() - st_.stallStartedAt;
    flushPending();
    pumpMain();
}

void
Server::flushPending()
{
    while (!st_.pendingSends.empty() && !st_.stalled && st_.alive) {
        auto [peer, msg] = std::move(st_.pendingSends.front());
        st_.pendingSends.pop_front();
        switch (comm_->send(peer, msg, {})) {
          case proto::SendStatus::Ok:
            break;
          case proto::SendStatus::WouldBlock:
            st_.pendingSends.emplace_front(peer, std::move(msg));
            st_.stalled = true;
            ++st_.stats.stallEvents;
            st_.stallStartedAt = node_.simulation().now();
            return;
          case proto::SendStatus::NotConnected:
            break;
          case proto::SendStatus::Efault:
            failFast("send() returned EFAULT (NULL data pointer)");
            return;
          case proto::SendStatus::Fatal:
            failFast("communication library descriptor error");
            return;
        }
    }
}

void
Server::broadcastCacheUpdate(sim::FileId file, bool added)
{
    // Walked in place, as in hbCheckTick().
    for (sim::NodeId m : st_.members) {
        if (m == node_.id() || !st_.alive)
            continue;
        CacheUpdateBody body;
        body.senderLoad = static_cast<std::uint32_t>(st_.outstanding);
        body.node = node_.id();
        body.file = file;
        body.added = added;
        proto::AppMessage msg;
        msg.type = MsgCacheUpdate;
        msg.bytes = cfg_.cacheUpdateBytes;
        msg.body = node_.simulation().makePayload<CacheUpdateBody>(body);
        ++st_.stats.broadcastsSent;
        sendOrQueue(m, std::move(msg));
    }
}

void
Server::sendCacheInfoTo(sim::NodeId peer)
{
    std::size_t per_chunk =
        std::max<std::size_t>(1, cfg_.cacheInfoChunkBytes /
                                     cfg_.cacheInfoEntryBytes);
    // Snapshot the cache contents: a send below can fail fatally (an
    // armed bad-parameter fault), which terminates the process and
    // clears the cache out from under a live iterator.
    std::vector<sim::FileId> files = st_.cache->files();
    CacheInfoBody chunk;
    chunk.node = node_.id();
    for (sim::FileId f : files) {
        chunk.files.push_back(f);
        if (chunk.files.size() >= per_chunk) {
            proto::AppMessage msg;
            msg.type = MsgCacheInfo;
            msg.bytes = chunk.files.size() * cfg_.cacheInfoEntryBytes;
            chunk.senderLoad = static_cast<std::uint32_t>(st_.outstanding);
            msg.body = node_.simulation().makePayload<CacheInfoBody>(chunk);
            sendOrQueue(peer, std::move(msg));
            if (!st_.alive)
                return; // the send fail-fasted the process
            chunk.files.clear();
        }
    }
    if (st_.alive && !chunk.files.empty()) {
        proto::AppMessage msg;
        msg.type = MsgCacheInfo;
        msg.bytes = chunk.files.size() * cfg_.cacheInfoEntryBytes;
        chunk.senderLoad = static_cast<std::uint32_t>(st_.outstanding);
        msg.body =
            node_.simulation().makePayload<CacheInfoBody>(std::move(chunk));
        sendOrQueue(peer, std::move(msg));
    }
}

// ---------------------------------------------------------------------
// Cache helpers
// ---------------------------------------------------------------------

void
Server::cacheInsert(sim::FileId f)
{
    if (st_.cache->contains(f)) {
        st_.cache->touch(f);
        return;
    }
    bool ok = st_.cache->insert(f, [this](sim::FileId victim) {
        ++st_.stats.cacheEvictions;
        st_.directory.remove(victim, node_.id());
        broadcastCacheUpdate(victim, false);
    });
    if (ok) {
        ++st_.stats.cacheInserts;
        st_.directory.add(f, node_.id());
        broadcastCacheUpdate(f, true);
    }
}

void
Server::prewarmFile(sim::FileId f, sim::NodeId owner)
{
    if (!st_.alive)
        return;
    if (owner == node_.id())
        st_.cache->insert(f);
    st_.directory.add(f, owner);
}

std::uint32_t
Server::loadOf(sim::NodeId n) const
{
    if (n == node_.id())
        return static_cast<std::uint32_t>(st_.outstanding);
    return n < st_.loads.size() ? st_.loads[n] : 0;
}

// ---------------------------------------------------------------------
// Housekeeping
// ---------------------------------------------------------------------

void
Server::sweepTick()
{
    scheduleEpoch(sim::sec(2), &Server::sweepTick);
    sim::Tick now = node_.simulation().now();
    for (auto it = st_.pendingFwd.begin(); it != st_.pendingFwd.end();) {
        if (now - it->second.sentAt > sim::sec(10)) {
            it = st_.pendingFwd.erase(it);
            finishRequest(); // the client has long since timed out
        } else {
            ++it;
        }
    }
}

} // namespace performa::press
