/**
 * @file
 * Model of a user-level VIA (Virtual Interface Architecture) provider
 * over a cLAN-style SAN, with the properties the paper's evaluation
 * depends on:
 *
 *  - reliable-connection fail-stop semantics: any packet loss breaks
 *    the connection immediately (SAN fabrics treat loss as
 *    catastrophic, not congestion), so fault detection is near
 *    instantaneous;
 *  - pre-allocated resources: descriptors and message buffers are
 *    registered (pinned) at start-up, making the stack immune to
 *    kernel-memory exhaustion, unlike TCP;
 *  - credit-based flow control driven by explicit flow-control
 *    messages (as PRESS implements over VIA);
 *  - three messaging modes matching VIA-PRESS-0/3/5: interrupt-driven
 *    send/receive, remote memory writes with receiver polling, and
 *    remote writes with zero-copy data transfers;
 *  - descriptor-status error reporting: a bad parameter surfaces as a
 *    fatal completion error at the sender, and for remote-write modes
 *    at BOTH endpoints of the transfer;
 *  - hardware (NIC-level) acknowledgement: a frozen host's NIC still
 *    acks, so connections survive OS hangs, but credits stop being
 *    returned and senders stall.
 */

#ifndef PERFORMA_PROTO_VIA_HH
#define PERFORMA_PROTO_VIA_HH

#include <cstdint>
#include <optional>

#include "net/frame.hh"
#include "os/node.hh"
#include "proto/channels.hh"
#include "proto/comm.hh"
#include "sim/ring_buffer.hh"
#include "sim/simulation.hh"

namespace performa::proto {

/** Messaging mode, mapping to the VIA-PRESS versions. */
enum class ViaMode
{
    SendRecv,            ///< VIA-PRESS-0: regular messages, interrupts
    RemoteWrite,         ///< VIA-PRESS-3: RDMA writes, polling
    RemoteWriteZeroCopy, ///< VIA-PRESS-5: RDMA + zero-copy data
};

/** Tunables for the VIA model. */
struct ViaConfig
{
    ViaMode mode = ViaMode::SendRecv;
    std::uint32_t credits = 32;    ///< pre-posted descriptors / slots
    /** Mean extra delivery latency for polled (RDMA) modes. */
    sim::Tick pollDelay = sim::usec(50);
    /** Message buffers registered (pinned) at service start. */
    std::uint64_t regBufferBytes = 4ull << 20;
    std::uint64_t headerBytes = 40;
    std::uint64_t datagramBytes = 64;
    sim::Tick connectTimeout = sim::sec(1);
    int connectRetries = 3;
    /** Default CPU costs: calibrated VIA send/receive values (see
     *  press::viaConfigFor, which PRESS deployments use). */
    CommCosts costs{sim::usec(21), 9.0, sim::usec(42), 9.0};
};

/** One VI: the shared channel fields plus credits and the send
 *  queue. */
struct ViaVi : Channel
{
    /** Pooled once at send(); the wire frame shares the handle. */
    struct OutMsg
    {
        sim::Rc<AppMessage> msg;
        std::uint64_t wireBytes;
    };

    std::uint32_t remoteCredits = 0;
    sim::RingBuffer<OutMsg> sndQueue;
    bool inFlight = false;
};

/**
 * The VIA provider + VIPL library endpoint for one server process.
 */
class ViaComm : public ChannelComm<ViaComm, ViaVi>
{
  public:
    /** Peers are addressed by node id, so @p node must own intra port
     *  node.id(); PANICs otherwise. */
    ViaComm(osim::Node &node, ViaConfig cfg);

    void start() override;
    SendStatus send(sim::NodeId peer, AppMessage msg,
                    const SendParams &params) override;
    void sendDatagram(sim::NodeId peer, std::uint32_t kind,
                      sim::RcAny payload = {}) override;
    void consumed(sim::NodeId peer) override;
    void shutdown() override;
    void vanish() override;

    /**
     * Register (pin) application memory, e.g. VIA-PRESS-5's cached
     * file pages. @return false when the pinnable-page budget is
     * exhausted.
     */
    bool registerMemory(std::uint64_t bytes);

    /** Deregister (unpin) previously registered memory. */
    void deregisterMemory(std::uint64_t bytes);

    /** @return true if start-up registration succeeded. */
    bool started() const { return st_.listening; }

    const ViaConfig &config() const { return cfg_; }

  private:
    friend class sim::SnapshotRegistry;
    friend class ChannelComm<ViaComm, ViaVi>;

    enum FrameKind : std::uint32_t
    {
        ConnReq,
        ConnAck,
        ConnRefused,
        Data,
        Credit,
        BreakNotify, ///< graceful close / error: peer should break too
        ErrorNotify, ///< RDMA completion error raised at the remote end
    };

    static constexpr net::Proto wireProto = net::Proto::Via;
    static constexpr ControlKinds control{ConnReq, ConnAck, ConnRefused,
                                          BreakNotify};

    ViaVi &open(std::uint64_t id, sim::NodeId peer);
    /** A VI holds nothing to release beyond its connect timer. */
    void release(ViaVi &) {}
    std::optional<sim::Tick> pollDelay() const;

    void handleFrame(net::Frame &&f);
    void handleData(net::Frame &&f);
    void pump(ViaVi &vi);

    /** VIA-PRESS-3/5: data moves by RDMA writes, which the receiver
     *  polls for, and a bad descriptor is reported at both ends. */
    bool remoteWrite() const { return cfg_.mode != ViaMode::SendRecv; }

    ViaConfig cfg_;

    /** Snapshot state: flags, pinned-byte accounting and every VI
     *  (queues deep-copied, payload handles refcount-bumped). */
    struct State
    {
        bool listening = false;
        bool appReceiving = true;
        std::uint64_t pinnedByUs = 0; ///< total we registered (for reset)
        ChannelTable<ViaVi> chans;
    };

    State st_;
};

} // namespace performa::proto

#endif // PERFORMA_PROTO_VIA_HH
