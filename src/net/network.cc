#include "net/network.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace performa::net {

Network::Network(sim::Simulation &s, NetworkConfig cfg)
    : sim_(s), cfg_(cfg)
{
}

PortId
Network::addPort()
{
    st_.ports.emplace_back();
    handlers_.emplace_back();
    return static_cast<PortId>(st_.ports.size() - 1);
}

void
Network::setHandler(PortId port, Handler h)
{
    handlers_.at(port) = std::move(h);
}

void
Network::setPortUp(PortId port, bool up)
{
    st_.ports.at(port).up = up;
}

void
Network::setLinkUp(PortId port, bool up)
{
    st_.ports.at(port).linkUp = up;
}

void
Network::setSwitchUp(bool up)
{
    st_.switchUp = up;
}

sim::Tick
Network::txTime(std::uint64_t bytes) const
{
    // Ceiling, not floor: a partially-filled final microsecond still
    // occupies the wire, and flooring would undercharge every size that
    // is not a multiple of bytesPerUsec.
    double us = static_cast<double>(bytes) / cfg_.bytesPerUsec;
    sim::Tick t = static_cast<sim::Tick>(us);
    if (static_cast<double>(t) < us)
        ++t;
    return t == 0 ? 1 : t;
}

std::uint32_t
Network::acquireSlot()
{
    if (st_.freeHead != noSlot) {
        std::uint32_t slot = st_.freeHead;
        st_.freeHead = st_.inflight[slot].next;
        return slot;
    }
    st_.inflight.emplace_back();
    return static_cast<std::uint32_t>(st_.inflight.size() - 1);
}

void
Network::send(Frame &&frame, Outcome outcome)
{
    Port &src = st_.ports.at(frame.srcPort);
    Port &dst = st_.ports.at(frame.dstPort);

    sim::Tick now = sim_.now();
    bool path_ok = src.up && src.linkUp && st_.switchUp && dst.linkUp &&
                   dst.up;

    if (!path_ok) {
        ++st_.dropped;
        // Charge the sender's NIC with the first down component,
        // checking hosts before links before the switch.
        if (!src.up || !dst.up)
            ++src.stats.dropPortDown;
        else if (!src.linkUp || !dst.linkUp)
            ++src.stats.dropLinkDown;
        else
            ++src.stats.dropSwitchDown;
        if (outcome) {
            // Hardware-ack timeout: the sender-side NIC learns of the
            // loss after a short round-trip-scale delay. Park only the
            // callback; the event captures {this, slot}.
            sim::Tick when = now + 2 * cfg_.linkLatency +
                             cfg_.switchLatency + sim::usec(20);
            std::uint32_t slot = acquireSlot();
            InFlight &rec = st_.inflight[slot];
            rec.outcome = std::move(outcome);
            rec.deliver = false;
            sim_.schedule(when, [this, slot] { fireInFlight(slot); });
        }
        return;
    }

    src.stats.framesSent++;
    src.stats.bytesSent += frame.bytes;

    // Uplink serialization, store-and-forward, downlink serialization.
    sim::Tick ser = txTime(frame.bytes);
    sim::Tick tx_start = std::max(now, src.txBusyUntil);
    sim::Tick tx_done = tx_start + ser;
    src.txBusyUntil = tx_done;

    sim::Tick at_switch = tx_done + cfg_.linkLatency + cfg_.switchLatency;
    sim::Tick rx_start = std::max(at_switch, dst.rxBusyUntil);
    sim::Tick rx_done = rx_start + ser + cfg_.linkLatency;
    dst.rxBusyUntil = rx_done;

    std::uint32_t slot = acquireSlot();
    InFlight &rec = st_.inflight[slot];
    rec.frame = std::move(frame);
    rec.outcome = std::move(outcome);
    rec.deliver = true;
    sim_.schedule(rx_done, [this, slot] { fireInFlight(slot); });
}

void
Network::fireInFlight(std::uint32_t slot)
{
    // Move the record's contents out and release the slot *first*: the
    // handler below may send more frames, which can grow st_.inflight and
    // invalidate the reference (and should be able to reuse the slot).
    Frame f = std::move(st_.inflight[slot].frame);
    Outcome cb = std::move(st_.inflight[slot].outcome);
    bool deliver = st_.inflight[slot].deliver;
    st_.inflight[slot].next = st_.freeHead;
    st_.freeHead = slot;

    if (!deliver) {
        // Parked hardware-ack drop notification.
        cb(false);
        return;
    }

    PortId dst = f.dstPort;
    Port &d = st_.ports.at(dst);
    // Re-check the receiving side: components that died while the
    // frame was in flight still cause a loss.
    if (!d.up || !d.linkUp || !st_.switchUp) {
        ++st_.dropped;
        ++st_.ports.at(f.srcPort).stats.dropDiedInFlight;
        if (cb)
            cb(false);
        return;
    }
    ++st_.delivered;
    d.stats.framesReceived++;
    d.stats.bytesReceived += f.bytes;
    if (handlers_[dst])
        handlers_[dst](std::move(f));
    if (cb)
        cb(true);
}

} // namespace performa::net
