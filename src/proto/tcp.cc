#include "proto/tcp.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace performa::proto {

// Connection identifiers come from Simulation::allocId(): unique
// within one simulated world, race-free across concurrent worlds.

TcpComm::TcpComm(osim::Node &node, TcpConfig cfg)
    : ChannelComm(node, "tcp"), cfg_(cfg)
{
}

TcpConn &
TcpComm::open(std::uint64_t id, sim::NodeId peer)
{
    TcpConn &c = st_.chans.open(id, peer);
    c.rto = cfg_.rtoInitial;
    c.rcvQueue.reserve(cfg_.rcvQueueMsgs);
    return c;
}

void
TcpComm::release(TcpConn &c)
{
    auto &events = node_.simulation().events();
    events.cancel(c.rtoTimer);
    events.cancel(c.memRetryTimer);
    if (c.skbufHeld && !c.sndQueue.empty())
        node_.kernelMem().free(c.sndQueue.front().wireBytes);
}

void
TcpComm::start()
{
    st_.listening = true;
    st_.appReceiving = true;
}

void
TcpComm::vanish()
{
    releaseAll();
    st_.listening = false;
}

SendStatus
TcpComm::send(sim::NodeId peer, AppMessage msg, const SendParams &params)
{
    if (params.nullPointer) {
        // Synchronous detection: copy_from_user faults immediately.
        return SendStatus::Efault;
    }

    TcpConn *c = st_.chans.byPeer(peer);
    if (!c || !c->established)
        return SendStatus::NotConnected;

    std::uint64_t wire = msg.bytes + cfg_.headerBytes;
    if (c->sndBytes + msg.bytes > cfg_.sndBufBytes) {
        c->senderBlocked = true;
        return SendStatus::WouldBlock;
    }

    TcpConn::OutMsg out;
    out.wireBytes = wire;
    out.seq = c->seqNext++;
    // A bad offset or size does not fail the send call; it silently
    // corrupts the byte stream from this message onward.
    out.desync = params.ptrOffset != 0 || params.sizeDelta != 0;
    c->sndBytes += msg.bytes;
    // Pool the payload once; retransmissions reuse the same block.
    out.msg = node_.simulation().makePayload<AppMessage>(std::move(msg));
    c->sndQueue.push_back(std::move(out));
    pump(*c);
    return SendStatus::Ok;
}

void
TcpComm::sendDatagram(sim::NodeId peer, std::uint32_t kind,
                      sim::RcAny payload)
{
    // Heartbeats need kernel buffers too: under the memory-exhaustion
    // fault they silently stop flowing.
    if (!node_.kernelMem().alloc(cfg_.datagramBytes))
        return;
    node_.kernelMem().free(cfg_.datagramBytes);

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
TcpComm::consumed(sim::NodeId peer)
{
    // Receive-side skbufs are probed (alloc+free) at acceptance, so
    // nothing to release here; kept for interface symmetry with VIA
    // credit returns.
    (void)peer;
}

void
TcpComm::pump(TcpConn &c)
{
    if (!c.established || c.inFlight || c.sndQueue.empty())
        return;

    if (!c.skbufHeld) {
        if (!node_.kernelMem().alloc(c.sndQueue.front().wireBytes)) {
            // Out of kernel memory: the segment stays queued in the
            // OS; retry the allocation shortly.
            std::uint64_t id = c.id;
            c.memRetryTimer = node_.simulation().scheduleIn(
                sim::msec(10), [this, id] {
                    if (TcpConn *cc = st_.chans.find(id))
                        pump(*cc);
                });
            return;
        }
        c.skbufHeld = true;
    }

    transmitHead(c);
    c.inFlight = true;
    armRto(c);
}

void
TcpComm::transmitHead(const TcpConn &c)
{
    const TcpConn::OutMsg &m = c.sndQueue.front();
    net::Frame f;
    f.srcPort = node_.intraPort();
    f.dstPort = c.peer;
    f.proto = net::Proto::Tcp;
    f.kind = Data;
    f.conn = c.id;
    f.seq = m.seq;
    f.bytes = m.wireBytes;
    f.corrupted = m.desync;
    f.payload = m.msg; // refcount bump, no copy
    node_.intraNet().send(std::move(f));
}

void
TcpComm::armRto(TcpConn &c)
{
    std::uint64_t id = c.id;
    c.rtoTimer = node_.simulation().scheduleIn(c.rto,
        [this, id] { onRtoFired(id); });
}

void
TcpComm::onRtoFired(std::uint64_t conn_id)
{
    TcpConn *c = st_.chans.find(conn_id);
    if (!c || !c->inFlight)
        return;

    sim::Tick now = node_.simulation().now();
    if (c->firstFailAt == 0)
        c->firstFailAt = now;
    if (now - c->firstFailAt >= cfg_.abortTimeout) {
        retire(conn_id, Retire::Aborted, BreakReason::Timeout);
        return;
    }

    // Exponential backoff, then retransmit the in-flight message (the
    // same pooled block as the first transmit).
    c->rto = std::min<sim::Tick>(c->rto * 2, cfg_.rtoMax);
    if (node_.up() && !c->sndQueue.empty())
        transmitHead(*c);
    armRto(*c);
}

void
TcpComm::handleFrame(net::Frame &&f)
{
    // A frozen node's kernel executes nothing: segments are neither
    // processed nor acknowledged, so peers keep retransmitting.
    if (!node_.up())
        return;

    if (f.proto == net::Proto::Datagram) {
        receiveDatagram(std::move(f));
        return;
    }

    switch (f.kind) {
      case Syn:
        // A repeated SYN (our SYN-ACK was lost) replaces the
        // connection it repeats, like any other.
        admit(f.srcPort, f.conn, /*reackDuplicate=*/false);
        break;
      case SynAck:
        connectAcked(f.conn);
        break;
      case Rst:
        handleRst(f);
        break;
      case Data:
        handleData(std::move(f));
        break;
      case Ack:
        handleAck(f);
        break;
      default:
        PANIC("tcp: unknown frame kind ", f.kind);
    }
}

void
TcpComm::handleRst(const net::Frame &f)
{
    const TcpConn *c = st_.chans.find(f.conn);
    if (!c)
        return;
    // A reset answering our SYN refuses the connect; any other breaks
    // the connection.
    retire(f.conn, c->established ? Retire::Broken : Retire::Refused,
           BreakReason::ConnReset);
}

void
TcpComm::handleData(net::Frame &&f)
{
    TcpConn *c = st_.chans.find(f.conn);
    if (!c) {
        // Segment for a connection this incarnation does not know.
        sendControl(f.srcPort, Rst, f.conn);
        return;
    }

    if (f.seq < c->seqExpected) {
        // Duplicate (our ack was lost); re-ack so the sender advances.
        sendControl(f.srcPort, Ack, f.conn, f.seq);
        return;
    }
    if (f.seq > c->seqExpected)
        return; // out of order (cannot happen with one in flight)

    // Acceptance needs receive-queue space and an skbuf.
    if (c->rcvQueue.size() >= cfg_.rcvQueueMsgs)
        return; // silently dropped; sender retransmits
    if (!node_.kernelMem().alloc(f.bytes))
        return; // memory exhaustion: inbound segments are dropped
    node_.kernelMem().free(f.bytes);

    ++c->seqExpected;

    InMsg in;
    if (f.payload)
        in.msg = *f.payload.get<AppMessage>();
    if (f.corrupted) {
        // The framing layer on top of the byte stream reads garbage
        // lengths: unrecoverable.
        in.fatal = "TCP byte stream desynchronized by bad send parameters";
    }
    c->rcvQueue.push_back(std::move(in));

    sendControl(f.srcPort, Ack, f.conn, f.seq);
    scheduleDeliveries(*c);
}

void
TcpComm::handleAck(const net::Frame &f)
{
    TcpConn *c = st_.chans.find(f.conn);
    if (!c || !c->inFlight || c->sndQueue.empty() ||
        c->sndQueue.front().seq != f.seq)
        return;

    node_.simulation().events().cancel(c->rtoTimer);
    if (c->skbufHeld)
        node_.kernelMem().free(c->sndQueue.front().wireBytes);
    c->skbufHeld = false;
    c->sndBytes -= c->sndQueue.front().msg->bytes;
    c->sndQueue.pop_front();
    c->inFlight = false;
    c->firstFailAt = 0;
    c->rto = cfg_.rtoInitial;

    maybeUnblockSender(*c);
    pump(*c);
}

void
TcpComm::maybeUnblockSender(TcpConn &c)
{
    if (c.senderBlocked && c.sndBytes <= (cfg_.sndBufBytes * 3) / 4) {
        c.senderBlocked = false;
        cbs_.onSendReady();
    }
}

} // namespace performa::proto
