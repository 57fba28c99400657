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
    // Each pending forward is an outstanding request, and at most
    // acceptCap are outstanding.
    st_.pendingFwd.reserve(cfg_.acceptCap);

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
            unstall();
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
Server::replyCost(sim::FileId f) const
{
    auto bytes = cfg_.sizeOf(f) + cfg_.fileRespOverheadBytes;
    return cfg_.costs.clientSendFixed +
           static_cast<sim::Tick>(cfg_.costs.clientSendPerKb *
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
    if (target == sim::invalidNode) {
        // Nobody caches it: the least-loaded member fetches it from
        // disk and becomes its caching node.
        target = leastLoaded(st_.members, [](sim::NodeId) { return true; });
        if (target == node_.id()) {
            ++st_.stats.localMisses;
            serveFromDisk(req);
            return;
        }
    }
    forwardRequest(req, target);
}

void
Server::serveFromCache(const ClientRequestBody &req)
{
    st_.cache->touch(req.file);
    sim::Tick svc = node_.simulation().now();
    mainExec(cfg_.costs.cacheRead + replyCost(req.file),
             [this, req, svc] { respondToClient(req, svc); });
}

void
Server::serveFromDisk(const ClientRequestBody &req)
{
    std::uint64_t e = st_.epoch;
    sim::Tick svc = node_.simulation().now();
    disk_->read(cfg_.sizeOf(req.file), [this, e, req, svc] {
        if (e != st_.epoch || !st_.alive)
            return;
        mainExec(cfg_.costs.diskReadCpu + cfg_.costs.cacheRead +
                     replyCost(req.file),
            [this, req, svc] {
                cacheInsert(req.file);
                respondToClient(req, svc);
            });
    });
}

Server::PendingTable::iterator
Server::pendingAt(sim::RequestId id)
{
    return std::lower_bound(
        st_.pendingFwd.begin(), st_.pendingFwd.end(), id,
        [](const PendingFwd &p, sim::RequestId r) { return p.req.req < r; });
}

void
Server::forwardRequest(const ClientRequestBody &req, sim::NodeId target)
{
    ++st_.stats.forwarded;
    PendingFwd p{req, target, node_.simulation().now()};
    auto it = pendingAt(req.req);
    if (it != st_.pendingFwd.end() && it->req.req == req.req)
        *it = p;
    else
        st_.pendingFwd.insert(it, p);

    FwdRequestBody body;
    body.req = req.req;
    body.file = req.file;
    body.initial = node_.id();
    proto::AppMessage m = message(MsgFwdRequest, cfg_.fwdReqBytes, body);
    mainExec(comm_->sendCost(m.bytes),
        [this, target, m = std::move(m)]() mutable {
            sendOrQueue(target, std::move(m));
        });
}

void
Server::respondToClient(const ClientRequestBody &req,
                        sim::Tick service_start)
{
    net::Frame f;
    f.srcPort = node_.clientPort();
    f.dstPort = req.replyPort;
    f.proto = net::Proto::Client;
    f.kind = ClientResponse;
    f.bytes = cfg_.sizeOf(req.file) + cfg_.fileRespOverheadBytes;
    auto body = node_.simulation().makePayload<ClientResponseBody>();
    body->req = req.req;
    body->sentAt = req.sentAt;
    body->acceptedAt = req.acceptedAt;
    body->serviceStartAt = service_start;
    f.payload = std::move(body);
    node_.clientNet().send(std::move(f));
    ++st_.stats.responses;
    finishRequest();
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

template <class Body>
sim::Rc<Body>
Server::receive(sim::NodeId peer, const proto::AppMessage &msg)
{
    sim::Rc<Body> body = msg.body.cast<Body>();
    st_.loads[peer] = body->senderLoad;
    return body;
}

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
      case MsgFwdRequest:
        handleFwdRequest(*receive<FwdRequestBody>(peer, msg));
        break;
      case MsgFileData:
        handleFileData(*receive<FileDataBody>(peer, msg));
        break;
      case MsgCacheUpdate: {
        CacheUpdateBody b = *receive<CacheUpdateBody>(peer, msg);
        mainExec(cfg_.costs.broadcastHandle, [this, b] {
            if (b.added)
                st_.directory.add(b.file, b.node);
            else
                st_.directory.remove(b.file, b.node);
        });
        break;
      }
      case MsgCacheInfo: {
        // The handler runs later on the CPU: keep the owning handle.
        auto b = receive<CacheInfoBody>(peer, msg);
        sim::Tick cost = sim::usec(1) + b->files.size() / 5;
        mainExec(cost, [this, b] {
            for (sim::FileId f : b->files)
                st_.directory.add(f, b->node);
        });
        break;
      }
      case MsgMemberDown: {
        sim::NodeId failed = receive<MemberDownBody>(peer, msg)->failed;
        if (st_.members.count(failed) && failed != node_.id())
            excludeNode(failed);
        break;
      }
      default:
        PANIC("press: unknown message type ", msg.type);
    }
}

void
Server::handleFwdRequest(const FwdRequestBody &body)
{
    sim::Tick svc = node_.simulation().now();
    std::uint64_t data = cfg_.sizeOf(body.file) + cfg_.fileRespOverheadBytes;
    if (st_.cache->contains(body.file)) {
        ++st_.stats.fwdServed;
        st_.cache->touch(body.file);
        mainExec(cfg_.costs.cacheRead + comm_->sendCost(data),
                 [this, body, svc] { sendFileData(body, svc); });
        return;
    }

    // Stale directory at the initial node, or we were picked as the
    // caching node: fetch from disk and start caching the file.
    ++st_.stats.fwdMisses;
    std::uint64_t e = st_.epoch;
    disk_->read(cfg_.sizeOf(body.file), [this, e, body, svc, data] {
        if (e != st_.epoch || !st_.alive)
            return;
        mainExec(cfg_.costs.diskReadCpu + comm_->sendCost(data),
            [this, body, svc] {
                cacheInsert(body.file);
                sendFileData(body, svc);
            });
    });
}

void
Server::sendFileData(const FwdRequestBody &fwd, sim::Tick service_start)
{
    FileDataBody body;
    body.req = fwd.req;
    body.serviceStartAt = service_start;
    sendOrQueue(fwd.initial,
                message(MsgFileData,
                        cfg_.sizeOf(fwd.file) + cfg_.fileRespOverheadBytes,
                        body));
}

void
Server::handleFileData(const FileDataBody &body)
{
    auto it = pendingAt(body.req);
    if (it == st_.pendingFwd.end() || it->req.req != body.req)
        return; // request was re-dispatched or swept; ignore late data
    ClientRequestBody req = it->req;
    st_.pendingFwd.erase(it);
    mainExec(replyCost(req.file), [this, req, svc = body.serviceStartAt] {
        respondToClient(req, svc);
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
    st_.lastHbAt = node_.simulation().now(); // the ring changed
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
    st_.lastHbAt = node_.simulation().now(); // the ring changed

    // Drop queued traffic to the dead node.
    std::erase_if(st_.pendingSends,
                  [failed](const auto &p) { return p.first == failed; });

    // Re-dispatch, in request-id order, the requests forwarded to it
    // (mainExec() only queues work, so the walk sees a stable table).
    for (const PendingFwd &p : st_.pendingFwd) {
        if (p.target == failed)
            mainExec(sim::usec(5), [this, req = p.req] { dispatch(req); });
    }
    std::erase_if(st_.pendingFwd,
                  [failed](const PendingFwd &p) { return p.target == failed; });

    // If the main loop was stalled on a send, unstick it: the queued
    // sends to the dead peer were just dropped, and the blocked one
    // (if it targeted this peer) now fails with NotConnected.
    unstall();

    hooks_.onExclude(node_.id(), failed);
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
    MemberDownBody body;
    body.failed = pred;
    sendToMembers([&] {
        return message(MsgMemberDown, cfg_.cacheUpdateBytes, body);
    });
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

template <class Body>
proto::AppMessage
Server::message(MsgType type, std::uint64_t bytes, Body body)
{
    body.senderLoad = static_cast<std::uint32_t>(st_.outstanding);
    proto::AppMessage m;
    m.type = type;
    m.bytes = bytes;
    m.body = node_.simulation().makePayload<Body>(std::move(body));
    return m;
}

void
Server::sendOrQueue(sim::NodeId peer, proto::AppMessage msg)
{
    if (!st_.alive)
        return;
    if (st_.stalled)
        st_.pendingSends.emplace_back(peer, std::move(msg));
    else
        trySend(peer, msg);
}

void
Server::trySend(sim::NodeId peer, proto::AppMessage &msg)
{
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
Server::unstall()
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
    // Stops when a send stalls the thread again or ends the process.
    while (!st_.pendingSends.empty() && !st_.stalled && st_.alive) {
        auto [peer, msg] = std::move(st_.pendingSends.front());
        st_.pendingSends.pop_front();
        trySend(peer, msg);
    }
}

template <class Make>
void
Server::sendToMembers(Make make)
{
    // A send never changes the member set, and a fatal one ends the
    // process, so the set can be walked in place.
    for (sim::NodeId m : st_.members) {
        if (m == node_.id() || !st_.alive)
            continue;
        sendOrQueue(m, make());
    }
}

void
Server::broadcastCacheUpdate(sim::FileId file, bool added)
{
    CacheUpdateBody body;
    body.node = node_.id();
    body.file = file;
    body.added = added;
    sendToMembers([&] {
        ++st_.stats.broadcastsSent;
        return message(MsgCacheUpdate, cfg_.cacheUpdateBytes, body);
    });
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
    for (std::size_t i = 0; i < files.size() && st_.alive; i += per_chunk) {
        CacheInfoBody chunk;
        chunk.node = node_.id();
        chunk.files.assign(files.begin() + i,
                           files.begin() +
                               std::min(files.size(), i + per_chunk));
        std::uint64_t bytes = chunk.files.size() * cfg_.cacheInfoEntryBytes;
        sendOrQueue(peer, message(MsgCacheInfo, bytes, std::move(chunk)));
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
    std::size_t stale =
        std::erase_if(st_.pendingFwd, [now](const PendingFwd &p) {
            return now - p.forwardedAt > sim::sec(10);
        });
    for (; stale > 0; --stale)
        finishRequest(); // the client has long since timed out
}

} // namespace performa::press
