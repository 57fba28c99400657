#include "proto/via.hh"

#include <utility>

#include "sim/logging.hh"

namespace performa::proto {

// VI identifiers come from Simulation::allocId(): unique within one
// simulated world, race-free across concurrent worlds.

ViaComm::ViaComm(osim::Node &node, ViaConfig cfg)
    : ChannelComm(node, "via"), cfg_(cfg)
{
}

ViaVi &
ViaComm::open(std::uint64_t id, sim::NodeId peer)
{
    ViaVi &vi = st_.chans.open(id, peer);
    // The peer pre-posts all its descriptors; they are spent only once
    // the VI is established.
    vi.remoteCredits = cfg_.credits;
    vi.sndQueue.reserve(cfg_.credits);
    vi.rcvQueue.reserve(cfg_.credits);
    return vi;
}

std::optional<sim::Tick>
ViaComm::pollDelay() const
{
    if (remoteWrite())
        return cfg_.pollDelay;
    return std::nullopt; // interrupt-driven reception
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
ViaComm::shutdown()
{
    // Graceful process exit: tearing down VIs breaks the connections,
    // which peers interpret as node failure (PRESS semantics).
    ChannelComm::shutdown();
    if (st_.pinnedByUs > 0) {
        node_.pins().unpin(st_.pinnedByUs);
        st_.pinnedByUs = 0;
    }
}

void
ViaComm::vanish()
{
    st_.chans.clear();
    // The node is gone; the pin accounting was reset with the node.
    st_.pinnedByUs = 0;
    st_.listening = false;
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

SendStatus
ViaComm::send(sim::NodeId peer, AppMessage msg, const SendParams &params)
{
    ViaVi *vi = st_.chans.byPeer(peer);
    bool up = vi && vi->established;
    if (params.faulty()) {
        // VIPL diagnoses the bad descriptor as a fatal completion
        // error. For remote-write modes the error is additionally
        // reported at the other end of the transfer ("the fault is
        // reported at both ends of the communication").
        if (remoteWrite() && up)
            sendControl(peer, ErrorNotify, vi->id);
        return SendStatus::Fatal;
    }
    if (!up)
        return SendStatus::NotConnected;

    if (vi->remoteCredits == 0) {
        vi->senderBlocked = true;
        return SendStatus::WouldBlock;
    }

    --vi->remoteCredits;
    ViaVi::OutMsg out;
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
    const ViaVi *vi = st_.chans.byPeer(peer);
    if (!vi || !vi->established)
        return;
    sendControl(peer, Credit, vi->id);
}

void
ViaComm::pump(ViaVi &vi)
{
    if (!vi.established || vi.inFlight || vi.sndQueue.empty())
        return;

    ViaVi::OutMsg &m = vi.sndQueue.front();
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
        ViaVi *v = st_.chans.find(id);
        if (!v)
            return;
        if (!delivered) {
            // SAN loss: reliable-connection semantics are fail-stop.
            retire(id, Retire::Aborted, BreakReason::TransportError);
            return;
        }
        v->inFlight = false;
        if (!v->sndQueue.empty())
            v->sndQueue.pop_front();
        pump(*v);
    });
}

void
ViaComm::handleFrame(net::Frame &&f)
{
    // The cLAN NIC acknowledges in hardware, so frames are accepted
    // even while the host OS is frozen; they queue in NIC/host memory
    // until the CPU runs again.
    if (f.proto == net::Proto::Datagram) {
        receiveDatagram(std::move(f));
        return;
    }

    switch (f.kind) {
      case ConnReq:
        admit(f.srcPort, f.conn, /*reackDuplicate=*/true);
        break;
      case ConnAck:
        connectAcked(f.conn);
        break;
      case ConnRefused:
        if (const ViaVi *vi = st_.chans.find(f.conn);
            vi && !vi->established)
            retire(f.conn, Retire::Refused);
        break;
      case Data:
        handleData(std::move(f));
        break;
      case Credit: {
        ViaVi *vi = st_.chans.find(f.conn);
        if (!vi || !vi->established)
            return;
        ++vi->remoteCredits;
        if (vi->senderBlocked) {
            vi->senderBlocked = false;
            cbs_.onSendReady();
        }
        break;
      }
      case BreakNotify:
        retire(f.conn, Retire::Broken, BreakReason::TransportError);
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
ViaComm::handleData(net::Frame &&f)
{
    ViaVi *vi = st_.chans.find(f.conn);
    if (!vi) {
        // Data for a VI this incarnation does not know: tell the
        // sender the connection is dead.
        sendControl(f.srcPort, BreakNotify, f.conn);
        return;
    }

    InMsg in;
    if (f.payload)
        in.msg = *f.payload.get<AppMessage>();
    vi->rcvQueue.push_back(std::move(in));
    scheduleDeliveries(*vi);
}

} // namespace performa::proto
