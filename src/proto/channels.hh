/**
 * @file
 * The connection bookkeeping TcpComm and ViaComm share, written once.
 *
 * ChannelTable is one endpoint's table of channels (TCP connections,
 * VIA VIs) plus the active channel to each peer. ChannelComm is the
 * base both stacks derive from. It owns every rule that is not about
 * a wire protocol: peer lookup, opening a channel, resolving an
 * incoming connect (duplicate, tie-break, quiet replacement), connect
 * retries, retirement with the onSendReady invariant, receive
 * delivery, datagram delivery and send cost. The stacks keep only
 * their protocols, so that their behaviour differences under faults
 * come from the substrates (comm.hh), never from two copies of the
 * same bookkeeping drifting apart.
 */

#ifndef PERFORMA_PROTO_CHANNELS_HH
#define PERFORMA_PROTO_CHANNELS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "net/frame.hh"
#include "os/node.hh"
#include "proto/comm.hh"
#include "sim/logging.hh"
#include "sim/ring_buffer.hh"
#include "sim/simulation.hh"

namespace performa::proto {

/** A received message waiting to be handed to the application. */
struct InMsg
{
    AppMessage msg;
    /** Non-null: handing this message over is instead a fatal library
     *  error with this reason (a desynchronized TCP byte stream). */
    const char *fatal = nullptr;
};

/** The per-channel fields both stacks keep; each stack extends it. */
struct Channel
{
    std::uint64_t id = 0;
    sim::NodeId peer = sim::invalidNode;
    bool established = false;
    /** A send returned WouldBlock; cleared when space frees up. */
    bool senderBlocked = false;

    // connect side
    int connTries = 0;
    sim::EventHandle connTimer;

    // receive side
    sim::RingBuffer<InMsg> rcvQueue;
    /** Deliveries queued on the CPU but not yet executed. */
    std::size_t scheduledDeliveries = 0;
};

/**
 * One endpoint's channels and the active channel to each peer. It
 * lives in the endpoint's snapshot State.
 *
 * Channels are kept in an id-ordered map, deliberately: shutdown() and
 * setAppReceiving(true) walk the table with wire- and CPU-visible side
 * effects, so the walk must be in connection-id order, the same in a
 * warmed endpoint and its restored fork. Peer → active id is a vector
 * indexed by node id (0 = none; ids start at 1), grown on the first
 * mention of a higher node id.
 */
template <class Chan> class ChannelTable
{
    using Map = std::map<std::uint64_t, Chan>;

  public:
    Chan *
    find(std::uint64_t id)
    {
        auto it = chans_.find(id);
        return it == chans_.end() ? nullptr : &it->second;
    }

    const Chan *
    find(std::uint64_t id) const
    {
        auto it = chans_.find(id);
        return it == chans_.end() ? nullptr : &it->second;
    }

    /** The active channel to @p peer, or nullptr. */
    Chan *
    byPeer(sim::NodeId peer)
    {
        std::uint64_t id = activeId(peer);
        return id ? find(id) : nullptr;
    }

    const Chan *
    byPeer(sim::NodeId peer) const
    {
        std::uint64_t id = activeId(peer);
        return id ? find(id) : nullptr;
    }

    /**
     * Channel @p id, now the active one to @p peer. A channel that
     * already has this id is reused as it stands. One previously
     * active to @p peer stays in the table, no longer active, and runs
     * to its own outcome.
     */
    Chan &
    open(std::uint64_t id, sim::NodeId peer)
    {
        if (peer == sim::invalidNode)
            PANIC("channel ", id, " opened to no peer");
        if (peer >= active_.size())
            active_.resize(std::size_t(peer) + 1, 0);
        Chan &c = chans_[id];
        c.id = id;
        c.peer = peer;
        active_[peer] = id;
        return c;
    }

    /**
     * Remove channel @p id. The peer's active slot is cleared only if
     * it still names @p id. @return the removed map node (empty when
     * there was no such channel).
     */
    typename Map::node_type
    take(std::uint64_t id)
    {
        typename Map::node_type node = chans_.extract(id);
        if (node && activeId(node.mapped().peer) == id)
            active_[node.mapped().peer] = 0;
        return node;
    }

    void
    clear()
    {
        chans_.clear();
        std::fill(active_.begin(), active_.end(), 0);
    }

    /** Iteration in connection-id order. */
    typename Map::iterator begin() { return chans_.begin(); }
    typename Map::iterator end() { return chans_.end(); }

  private:
    std::uint64_t
    activeId(sim::NodeId peer) const
    {
        return peer < active_.size() ? active_[peer] : 0;
    }

    Map chans_;
    std::vector<std::uint64_t> active_;
};

/** The control-frame kinds a stack's connection rules send. */
struct ControlKinds
{
    std::uint32_t request; ///< open a channel (SYN, ConnReq)
    std::uint32_t ack;     ///< accept one (SYN-ACK, ConnAck)
    std::uint32_t refuse;  ///< not listening (RST, ConnRefused)
    std::uint32_t close;   ///< tear one down (RST, BreakNotify)
};

/**
 * Base of both stacks: the ClusterComm calls and internal rules that
 * are the same for TCP and VIA. @p Derived provides, to this class
 * (befriend it):
 *  - `st_` with `listening`, `appReceiving` and `chans`
 *    (a ChannelTable<Chan>);
 *  - `cfg_` with `costs`, `headerBytes`, `connectTimeout` and
 *    `connectRetries`;
 *  - `wireProto` (net::Proto) and `control` (ControlKinds);
 *  - `Chan &open(id, peer)`: st_.chans.open() plus the stack's own
 *    initial state;
 *  - `void release(Chan &)`: free the stack's own per-channel
 *    resources (timers other than connTimer, kernel buffers);
 *  - `void pump(Chan &)`: start sending queued messages;
 *  - `std::optional<sim::Tick> pollDelay() const`: the delay before
 *    the receiver polls a message in, or none for interrupt-driven
 *    reception;
 *  - `void handleFrame(net::Frame &&)`.
 */
template <class Derived, class Chan> class ChannelComm : public ClusterComm
{
  public:
    void setCallbacks(CommCallbacks cbs) override { cbs_ = std::move(cbs); }

    bool
    connected(sim::NodeId peer) const override
    {
        const Chan *c = self().st_.chans.byPeer(peer);
        return c && c->established;
    }

    void
    connect(sim::NodeId peer) override
    {
        std::uint64_t id = node_.simulation().allocId();
        Chan &c = self().open(id, peer);
        c.connTries = 1;
        sendControl(peer, Derived::control.request, id);
        armConnectRetry(c);
    }

    void
    disconnect(sim::NodeId peer) override
    {
        if (const Chan *c = self().st_.chans.byPeer(peer))
            retire(c->id, Retire::Closed);
    }

    void
    shutdown() override
    {
        // Process exit: the OS closes every channel, so peers see each
        // established one close.
        for (auto &[id, c] : self().st_.chans) {
            if (c.established)
                sendControl(c.peer, Derived::control.close, id);
        }
        releaseAll();
        self().st_.listening = false;
    }

    void
    setAppReceiving(bool on) override
    {
        self().st_.appReceiving = on;
        if (on) {
            for (auto &[id, c] : self().st_.chans)
                scheduleDeliveries(c);
        }
    }

    sim::Tick
    sendCost(std::uint64_t bytes) const override
    {
        return self().cfg_.costs.send(bytes);
    }

  protected:
    /** Peers are addressed by node id, so @p node must own intra port
     *  node.id(); PANICs otherwise, naming @p stack. */
    ChannelComm(osim::Node &node, const char *stack) : node_(node)
    {
        if (node_.intraPort() != node_.id())
            PANIC(stack, ": node ", node_.id(), " has intra port ",
                  node_.intraPort(), "; node i must own intra port i");

        node_.intraNet().setHandler(node_.intraPort(),
            [this](net::Frame &&f) { self().handleFrame(std::move(f)); });

        // A node crash wipes the stack without any wire traffic; peers
        // find out through their own timeouts, breaks or resets.
        node_.onCrash([this] { vanish(); });
    }

    /** How retire() reports a destroyed channel. */
    enum class Retire
    {
        Replaced, ///< a newer connect from the peer took its place
        Refused,  ///< connect refused or out of retries: onConnectFailed
        Closed,   ///< the application closed it: close frame, no callback
        Broken,   ///< the peer closed it or it died there: onPeerBroken
        Aborted,  ///< it failed here: close frame, then onPeerBroken
    };

    /**
     * Destroy channel @p id; the only code that does, apart from the
     * whole-table wipes of process exit and node crash. Clears the
     * peer's active slot only if it still names @p id, releases the
     * channel's resources, sends the close frame for Closed and
     * Aborted, and reports per @p how (onPeerBroken with @p why only
     * if it was established). A sender blocked on the channel is then
     * woken with onSendReady so it retries elsewhere; without that the
     * PRESS main loop would wait forever.
     */
    void
    retire(std::uint64_t id, Retire how,
           BreakReason why = BreakReason::ConnReset)
    {
        auto taken = self().st_.chans.take(id);
        if (!taken)
            return;
        Chan &c = taken.mapped();
        self().release(c);
        node_.simulation().events().cancel(c.connTimer);
        if (how == Retire::Closed || how == Retire::Aborted)
            sendControl(c.peer, Derived::control.close, id);
        if (how == Retire::Refused)
            cbs_.onConnectFailed(c.peer);
        else if ((how == Retire::Broken || how == Retire::Aborted) &&
                 c.established)
            cbs_.onPeerBroken(c.peer, why);
        if (c.senderBlocked)
            cbs_.onSendReady();
    }

    /** Release every channel and empty the table (process exit). */
    void
    releaseAll()
    {
        auto &events = node_.simulation().events();
        for (auto &[id, c] : self().st_.chans) {
            self().release(c);
            events.cancel(c.connTimer);
        }
        self().st_.chans.clear();
    }

    /**
     * An incoming connect for channel @p id from @p peer. Refused when
     * not listening. With @p reackDuplicate, a repeat request for the
     * active channel is simply acked again. When both ends connect at
     * once, the lower node id's request wins: the higher id ignores
     * the incoming one and lets its own pending connect complete.
     * Otherwise any channel to the peer is replaced quietly and the
     * new one is established, acked and reported.
     */
    void
    admit(sim::NodeId peer, std::uint64_t id, bool reackDuplicate)
    {
        if (!self().st_.listening) {
            sendControl(peer, Derived::control.refuse, id);
            return;
        }
        if (const Chan *old = self().st_.chans.byPeer(peer)) {
            if (reackDuplicate && old->id == id) {
                sendControl(peer, Derived::control.ack, id);
                return;
            }
            if (!old->established && peer > node_.id())
                return;
            retire(old->id, Retire::Replaced);
        }
        Chan &c = self().open(id, peer);
        c.established = true;
        sendControl(peer, Derived::control.ack, id);
        cbs_.onPeerConnected(peer);
    }

    /** The peer accepted pending channel @p id. */
    void
    connectAcked(std::uint64_t id)
    {
        Chan *c = self().st_.chans.find(id);
        if (!c || c->established)
            return;
        c->established = true;
        node_.simulation().events().cancel(c->connTimer);
        cbs_.onPeerConnected(c->peer);
        self().pump(*c);
    }

    /** An unreliable datagram arrived: hand it over after 5 us of CPU
     *  if the process is listening and receiving. */
    void
    receiveDatagram(net::Frame &&f)
    {
        if (!self().st_.listening || !self().st_.appReceiving ||
            !node_.up())
            return;
        sim::NodeId peer = f.srcPort;
        std::uint32_t kind = f.kind;
        node_.cpu().exec(sim::usec(5),
            [this, peer, kind, payload = std::move(f.payload)] {
                if (self().st_.listening && self().st_.appReceiving)
                    cbs_.onDatagram(peer, kind, payload);
            });
    }

    /** Queue CPU work handing @p c's received messages to the app. */
    void
    scheduleDeliveries(Chan &c)
    {
        if (!self().st_.appReceiving)
            return;
        std::uint64_t id = c.id;
        std::optional<sim::Tick> poll = self().pollDelay();
        while (c.scheduledDeliveries < c.rcvQueue.size()) {
            sim::Tick cost = self().cfg_.costs.recv(
                c.rcvQueue[c.scheduledDeliveries].msg.bytes);
            ++c.scheduledDeliveries;
            if (poll) {
                // The message waits in the remote-write buffer until
                // the server's main loop polls it.
                node_.simulation().scheduleIn(*poll, [this, id, cost] {
                    node_.cpu().exec(cost, [this, id] { deliver(id); });
                });
            } else {
                node_.cpu().exec(cost, [this, id] { deliver(id); });
            }
        }
    }

    /** Send a header-only control frame for channel @p id. */
    void
    sendControl(sim::NodeId peer, std::uint32_t kind, std::uint64_t id,
                std::uint64_t seq = 0)
    {
        net::Frame f;
        f.srcPort = node_.intraPort();
        f.dstPort = peer;
        f.proto = Derived::wireProto;
        f.kind = kind;
        f.conn = id;
        f.seq = seq;
        f.bytes = self().cfg_.headerBytes;
        node_.intraNet().send(std::move(f));
    }

    osim::Node &node_;
    CommCallbacks cbs_;

  private:
    Derived &self() { return static_cast<Derived &>(*this); }
    const Derived &self() const
    {
        return static_cast<const Derived &>(*this);
    }

    void
    armConnectRetry(Chan &c)
    {
        std::uint64_t id = c.id;
        c.connTimer = node_.simulation().scheduleIn(
            self().cfg_.connectTimeout, [this, id] { connectRetry(id); });
    }

    /** Resend the request for pending channel @p id, or give up. */
    void
    connectRetry(std::uint64_t id)
    {
        Chan *c = self().st_.chans.find(id);
        if (!c || c->established)
            return;
        if (c->connTries >= self().cfg_.connectRetries) {
            retire(id, Retire::Refused);
            return;
        }
        ++c->connTries;
        sendControl(c->peer, Derived::control.request, id);
        armConnectRetry(*c);
    }

    /** One scheduled delivery on channel @p id ran its CPU cost. */
    void
    deliver(std::uint64_t id)
    {
        Chan *c = self().st_.chans.find(id);
        if (!c || c->rcvQueue.empty() || c->scheduledDeliveries == 0)
            return;
        --c->scheduledDeliveries;
        if (!self().st_.appReceiving) {
            // SIGSTOP raced the delivery: leave the message queued for
            // the next setAppReceiving(true).
            return;
        }
        InMsg in = std::move(c->rcvQueue.front());
        c->rcvQueue.pop_front();
        if (in.fatal) {
            cbs_.onFatalError(in.fatal);
            return;
        }
        cbs_.onMessage(c->peer, std::move(in.msg));
    }
};

} // namespace performa::proto

#endif // PERFORMA_PROTO_CHANNELS_HH
