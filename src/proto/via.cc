#include "proto/via.hh"

#include <utility>

#include "sim/logging.hh"

namespace performa::proto {

// VI identifiers come from Simulation::allocId(): unique within one
// simulated world, race-free across concurrent worlds.

ViaComm::ViaComm(osim::Node &node, ViaConfig cfg)
    : node_(node), cfg_(cfg)
{
    if (node_.intraPort() != node_.id())
        PANIC("via: node ", node_.id(), " has intra port ",
              node_.intraPort(), "; node i must own intra port i");

    node_.intraNet().setHandler(node_.intraPort(),
        [this](net::Frame &&f) { handleFrame(std::move(f)); });

    node_.onCrash([this] { vanish(); });
}

ViaComm::Vi *
ViaComm::findByPeer(sim::NodeId peer)
{
    auto it = st_.active.find(peer);
    if (it == st_.active.end())
        return nullptr;
    auto vit = st_.vis.find(it->second);
    return vit == st_.vis.end() ? nullptr : &vit->second;
}

const ViaComm::Vi *
ViaComm::findByPeer(sim::NodeId peer) const
{
    return const_cast<ViaComm *>(this)->findByPeer(peer);
}

sim::Tick
ViaComm::sendCost(std::uint64_t bytes) const
{
    return cfg_.costs.sendFixed +
           static_cast<sim::Tick>(cfg_.costs.sendPerKb *
                                  static_cast<double>(bytes) / 1024.0);
}

void
ViaComm::start()
{
    // Pre-allocate: register every message buffer and descriptor up
    // front. This is the property that makes VIA immune to dynamic
    // kernel-memory exhaustion.
    if (!node_.pins().pin(cfg_.regBufferBytes)) {
        cbs_.onFatalError("VIA: cannot register communication "
                          "buffers at start-up");
        return;
    }
    st_.pinnedByUs += cfg_.regBufferBytes;
    st_.listening = true;
    st_.appReceiving = true;
}

void
ViaComm::reset()
{
    auto &sim = node_.simulation();
    for (auto &[id, vi] : st_.vis)
        sim.events().cancel(vi.connTimer);
    st_.vis.clear();
    st_.active.clear();
    if (st_.pinnedByUs > 0) {
        node_.pins().unpin(st_.pinnedByUs);
        st_.pinnedByUs = 0;
    }
}

void
ViaComm::disconnect(sim::NodeId peer)
{
    auto it = st_.active.find(peer);
    if (it == st_.active.end())
        return;
    std::uint64_t id = it->second;
    auto vit = st_.vis.find(id);
    st_.active.erase(it);
    if (vit == st_.vis.end())
        return;
    bool was_blocked = vit->second.senderBlocked;
    node_.simulation().events().cancel(vit->second.connTimer);
    st_.vis.erase(vit);
    sendControl(peer, BreakNotify, id);
    if (was_blocked)
        cbs_.onSendReady();
}

void
ViaComm::shutdown()
{
    // Graceful process exit: tearing down VIs breaks the connections,
    // which peers interpret as node failure (PRESS semantics).
    for (auto &[id, vi] : st_.vis) {
        if (vi.established)
            sendControl(vi.peer, BreakNotify, vi.id);
    }
    reset();
    st_.listening = false;
}

void
ViaComm::vanish()
{
    st_.vis.clear();
    st_.active.clear();
    // The node is gone; the pin accounting was reset with the node.
    st_.pinnedByUs = 0;
    st_.listening = false;
}

void
ViaComm::setAppReceiving(bool on)
{
    st_.appReceiving = on;
    if (on) {
        for (auto &[id, vi] : st_.vis)
            scheduleDeliveries(vi);
    }
}

bool
ViaComm::registerMemory(std::uint64_t bytes)
{
    if (!node_.pins().pin(bytes))
        return false;
    st_.pinnedByUs += bytes;
    return true;
}

void
ViaComm::deregisterMemory(std::uint64_t bytes)
{
    node_.pins().unpin(bytes);
    st_.pinnedByUs = bytes > st_.pinnedByUs ? 0 : st_.pinnedByUs - bytes;
}

void
ViaComm::sendControl(sim::NodeId peer, FrameKind kind, std::uint64_t vi_id)
{
    net::Frame f;
    f.srcPort = node_.intraPort();
    f.dstPort = peer;
    f.proto = net::Proto::Via;
    f.kind = kind;
    f.conn = vi_id;
    f.bytes = cfg_.headerBytes;
    node_.intraNet().send(std::move(f));
}

void
ViaComm::connect(sim::NodeId peer)
{
    std::uint64_t id = node_.simulation().allocId();
    Vi &vi = st_.vis[id];
    vi.id = id;
    vi.peer = peer;
    vi.sndQueue.reserve(cfg_.credits);
    vi.rcvQueue.reserve(cfg_.credits);
    st_.active[peer] = id;
    vi.connTries = 1;
    sendControl(peer, ConnReq, id);
    vi.connTimer = node_.simulation().scheduleIn(cfg_.connectTimeout,
        [this, id] { handleConnRetry(id); });
}

void
ViaComm::handleConnRetry(std::uint64_t vi_id)
{
    auto it = st_.vis.find(vi_id);
    if (it == st_.vis.end() || it->second.established)
        return;
    Vi &vi = it->second;
    if (vi.connTries >= cfg_.connectRetries) {
        sim::NodeId p = vi.peer;
        if (st_.active.count(p) && st_.active[p] == vi_id)
            st_.active.erase(p);
        st_.vis.erase(it);
        cbs_.onConnectFailed(p);
        return;
    }
    ++vi.connTries;
    sendControl(vi.peer, ConnReq, vi_id);
    vi.connTimer = node_.simulation().scheduleIn(cfg_.connectTimeout,
        [this, vi_id] { handleConnRetry(vi_id); });
}

bool
ViaComm::connected(sim::NodeId peer) const
{
    const Vi *vi = findByPeer(peer);
    return vi && vi->established;
}

SendStatus
ViaComm::send(sim::NodeId peer, AppMessage msg, const SendParams &params)
{
    if (params.faulty()) {
        // VIPL diagnoses the bad descriptor as a fatal completion
        // error. For remote-write modes the error is additionally
        // reported at the other end of the transfer ("the fault is
        // reported at both ends of the communication").
        if (remoteWrite() && connected(peer))
            sendControl(peer, ErrorNotify, st_.active[peer]);
        return SendStatus::Fatal;
    }

    Vi *vi = findByPeer(peer);
    if (!vi || !vi->established)
        return SendStatus::NotConnected;

    if (vi->remoteCredits == 0) {
        vi->senderBlocked = true;
        return SendStatus::WouldBlock;
    }

    --vi->remoteCredits;
    OutMsg out;
    out.wireBytes = msg.bytes + cfg_.headerBytes;
    out.msg = node_.simulation().makePayload<AppMessage>(std::move(msg));
    vi->sndQueue.push_back(std::move(out));
    pump(*vi);
    return SendStatus::Ok;
}

void
ViaComm::sendDatagram(sim::NodeId peer, std::uint32_t kind,
                      sim::RcAny payload)
{
    net::Frame f;
    f.srcPort = node_.intraPort();
    f.dstPort = peer;
    f.proto = net::Proto::Datagram;
    f.kind = kind;
    f.bytes = cfg_.datagramBytes;
    f.payload = std::move(payload);
    node_.intraNet().send(std::move(f));
}

void
ViaComm::consumed(sim::NodeId peer)
{
    // PRESS's explicit flow-control message: return one credit.
    Vi *vi = findByPeer(peer);
    if (!vi || !vi->established)
        return;
    sendControl(peer, Credit, vi->id);
}

void
ViaComm::pump(Vi &vi)
{
    if (!vi.established || vi.inFlight || vi.sndQueue.empty())
        return;

    OutMsg &m = vi.sndQueue.front();
    net::Frame f;
    f.srcPort = node_.intraPort();
    f.dstPort = vi.peer;
    f.proto = net::Proto::Via;
    f.kind = Data;
    f.conn = vi.id;
    f.bytes = m.wireBytes;
    f.payload = m.msg; // refcount bump, no copy
    vi.inFlight = true;

    std::uint64_t id = vi.id;
    node_.intraNet().send(std::move(f), [this, id](bool delivered) {
        auto it = st_.vis.find(id);
        if (it == st_.vis.end())
            return;
        if (!delivered) {
            // SAN loss: reliable-connection semantics are fail-stop.
            breakVi(id, BreakReason::TransportError, /*notify=*/true);
            return;
        }
        it->second.inFlight = false;
        if (!it->second.sndQueue.empty())
            it->second.sndQueue.pop_front();
        pump(it->second);
    });
}

void
ViaComm::breakVi(std::uint64_t vi_id, BreakReason reason, bool notify)
{
    auto it = st_.vis.find(vi_id);
    if (it == st_.vis.end())
        return;
    Vi vi = std::move(it->second);
    st_.vis.erase(it);
    if (st_.active.count(vi.peer) && st_.active[vi.peer] == vi_id)
        st_.active.erase(vi.peer);
    node_.simulation().events().cancel(vi.connTimer);

    if (notify)
        sendControl(vi.peer, BreakNotify, vi_id); // best effort

    if (vi.established)
        cbs_.onPeerBroken(vi.peer, reason);
    if (vi.senderBlocked)
        cbs_.onSendReady();
}

void
ViaComm::handleFrame(net::Frame &&f)
{
    // The cLAN NIC acknowledges in hardware, so frames are accepted
    // even while the host OS is frozen; they queue in NIC/host memory
    // until the CPU runs again.
    if (f.proto == net::Proto::Datagram) {
        if (!st_.listening || !st_.appReceiving || !node_.up())
            return;
        sim::NodeId peer = f.srcPort;
        std::uint32_t kind = f.kind;
        node_.cpu().exec(sim::usec(5),
            [this, peer, kind, payload = std::move(f.payload)] {
                if (st_.listening && st_.appReceiving)
                    cbs_.onDatagram(peer, kind, payload);
            });
        return;
    }

    switch (f.kind) {
      case ConnReq:
        handleConnReq(f);
        break;
      case ConnAck: {
        auto it = st_.vis.find(f.conn);
        if (it == st_.vis.end() || it->second.established)
            return;
        Vi &vi = it->second;
        vi.established = true;
        vi.remoteCredits = cfg_.credits;
        node_.simulation().events().cancel(vi.connTimer);
        cbs_.onPeerConnected(vi.peer);
        pump(vi);
        break;
      }
      case ConnRefused: {
        auto it = st_.vis.find(f.conn);
        if (it == st_.vis.end() || it->second.established)
            return;
        sim::NodeId peer = it->second.peer;
        node_.simulation().events().cancel(it->second.connTimer);
        if (st_.active.count(peer) && st_.active[peer] == f.conn)
            st_.active.erase(peer);
        st_.vis.erase(it);
        cbs_.onConnectFailed(peer);
        break;
      }
      case Data:
        handleData(std::move(f));
        break;
      case Credit: {
        auto it = st_.vis.find(f.conn);
        if (it == st_.vis.end() || !it->second.established)
            return;
        Vi &vi = it->second;
        ++vi.remoteCredits;
        if (vi.senderBlocked) {
            vi.senderBlocked = false;
            cbs_.onSendReady();
        }
        break;
      }
      case BreakNotify:
        breakVi(f.conn, BreakReason::TransportError, /*notify=*/false);
        break;
      case ErrorNotify:
        // RDMA completion error surfaced by our NIC: fatal for the
        // process (PRESS fail-fast).
        if (st_.listening) {
            node_.cpu().exec(sim::usec(5), [this] {
                if (st_.listening)
                    cbs_.onFatalError("VIA: remote DMA completion error");
            });
        }
        break;
      default:
        PANIC("via: unknown frame kind ", f.kind);
    }
}

void
ViaComm::handleConnReq(const net::Frame &f)
{
    sim::NodeId peer = f.srcPort;
    if (!st_.listening) {
        sendControl(peer, ConnRefused, f.conn);
        return;
    }
    if (auto it = st_.active.find(peer); it != st_.active.end()) {
        if (it->second == f.conn) {
            // Duplicate ConnReq (our ack was lost): re-ack.
            sendControl(peer, ConnAck, f.conn);
            return;
        }
        auto vit = st_.vis.find(it->second);
        if (vit != st_.vis.end() && !vit->second.established &&
            peer > node_.id()) {
            // Simultaneous connect race: both ends issued ConnReqs.
            // Deterministic tie-break: the lower node id's request
            // wins, so the higher id ignores the incoming one and
            // lets its own pending request complete.
            return;
        }
        // Stale (or losing) VI to this peer: drop it quietly. If a
        // sender was blocked on it, wake it up so its queued sends
        // retry on the replacement VI.
        bool was_blocked = false;
        if (vit != st_.vis.end()) {
            was_blocked = vit->second.senderBlocked;
            node_.simulation().events().cancel(vit->second.connTimer);
            st_.vis.erase(vit);
        }
        st_.active.erase(it);
        if (was_blocked)
            cbs_.onSendReady();
    }

    Vi &vi = st_.vis[f.conn];
    vi.id = f.conn;
    vi.peer = peer;
    vi.established = true;
    vi.remoteCredits = cfg_.credits;
    vi.sndQueue.reserve(cfg_.credits);
    vi.rcvQueue.reserve(cfg_.credits);
    st_.active[peer] = f.conn;

    sendControl(peer, ConnAck, f.conn);
    cbs_.onPeerConnected(peer);
}

void
ViaComm::handleData(net::Frame &&f)
{
    auto it = st_.vis.find(f.conn);
    if (it == st_.vis.end()) {
        // Data for a VI this incarnation does not know: tell the
        // sender the connection is dead.
        sendControl(f.srcPort, BreakNotify, f.conn);
        return;
    }
    Vi &vi = it->second;

    InMsg in;
    in.peer = vi.peer;
    if (f.payload)
        in.msg = *f.payload.get<AppMessage>();
    vi.rcvQueue.push_back(std::move(in));
    scheduleDeliveries(vi);
}

void
ViaComm::scheduleDeliveries(Vi &vi)
{
    if (!st_.appReceiving)
        return;
    std::uint64_t id = vi.id;
    while (vi.scheduledDeliveries < vi.rcvQueue.size()) {
        const InMsg &in = vi.rcvQueue[vi.scheduledDeliveries];
        ++vi.scheduledDeliveries;
        sim::Tick cost = cfg_.costs.recvFixed +
            static_cast<sim::Tick>(cfg_.costs.recvPerKb *
                static_cast<double>(in.msg.bytes) / 1024.0);

        auto deliver = [this, id] {
            auto vit = st_.vis.find(id);
            if (vit == st_.vis.end() || vit->second.rcvQueue.empty() ||
                vit->second.scheduledDeliveries == 0)
                return;
            --vit->second.scheduledDeliveries;
            if (!st_.appReceiving)
                return; // SIGSTOP raced; retried on SIGCONT
            InMsg msg = std::move(vit->second.rcvQueue.front());
            vit->second.rcvQueue.pop_front();
            cbs_.onMessage(msg.peer, std::move(msg.msg));
        };

        if (polled()) {
            // The message sits in the remote-write buffer until the
            // server's main loop polls it.
            node_.simulation().scheduleIn(cfg_.pollDelay,
                [this, cost, deliver] {
                    node_.cpu().exec(cost, deliver);
                });
        } else {
            // Interrupt-driven reception.
            node_.cpu().exec(cost, deliver);
        }
    }
}

} // namespace performa::proto
