/**
 * @file
 * Message-level model of a kernel TCP stack, faithful to the
 * behaviours the paper's evaluation depends on:
 *
 *  - a byte-stream with framing on top: an off-by-N size or pointer
 *    fault desynchronizes the stream and surfaces as a fatal framing
 *    error at the receiver;
 *  - timeout-and-retry with exponential backoff: packet loss is
 *    assumed transient, so faults are detected only after very long
 *    abort timeouts (10-15 minutes);
 *  - RST semantics: a segment arriving at a host that does not know
 *    the connection (process died, node rebooted into a new
 *    incarnation) is answered with a reset, which is how peers
 *    eventually detect crashes;
 *  - kernel-memory coupling: every queued segment needs an skbuf; when
 *    the allocator fails (resource-exhaustion fault) outbound traffic
 *    stalls inside the OS and inbound segments are dropped;
 *  - synchronous EFAULT on a NULL user pointer.
 *
 * Granularity: one frame per application message (not per MSS
 * segment); retransmission, acking and windowing operate on message
 * frames. This preserves every timing behaviour the study measures
 * while keeping event counts tractable.
 */

#ifndef PERFORMA_PROTO_TCP_HH
#define PERFORMA_PROTO_TCP_HH

#include <cstdint>
#include <optional>

#include "net/frame.hh"
#include "os/node.hh"
#include "proto/channels.hh"
#include "proto/comm.hh"
#include "sim/ring_buffer.hh"
#include "sim/simulation.hh"

namespace performa::proto {

/** Tunables for the TCP model. */
struct TcpConfig
{
    std::uint64_t sndBufBytes = 128 * 1024; ///< per-connection send queue
    std::size_t rcvQueueMsgs = 16;          ///< per-connection recv queue
    sim::Tick rtoInitial = sim::msec(200);
    sim::Tick rtoMax = sim::sec(64);
    /**
     * Give up retransmitting and abort the connection after this long
     * without progress ("these timeouts tend to be very long, on the
     * order of 10-15 minutes").
     */
    sim::Tick abortTimeout = sim::minutes(15);
    sim::Tick connectTimeout = sim::sec(3);
    int connectRetries = 4;
    std::uint64_t headerBytes = 60;  ///< wire overhead per message
    std::uint64_t datagramBytes = 64;
    /** Default CPU costs: calibrated kernel-TCP values (see
     *  press::tcpConfigFor, which PRESS deployments use). */
    CommCosts costs{sim::usec(63), 12.0, sim::usec(74), 12.0};
};

/** One TCP connection endpoint: the shared channel fields plus the
 *  byte stream's sender and receiver state. */
struct TcpConn : Channel
{
    /**
     * What a queued outbound message looks like. The pooled payload is
     * created once at send() time; every (re)transmission attaches the
     * same handle to the wire frame (refcount bump), so the block is
     * recycled only when the final ack or abort drops the last
     * reference.
     */
    struct OutMsg
    {
        sim::Rc<AppMessage> msg;
        std::uint64_t wireBytes;
        std::uint64_t seq;
        /** Stream-desync fault riding on this message, if any. */
        bool desync = false;
    };

    // sender side
    sim::RingBuffer<OutMsg> sndQueue;
    std::uint64_t sndBytes = 0;
    std::uint64_t seqNext = 0;
    bool inFlight = false;
    bool skbufHeld = false; ///< in-flight frame holds kernel memory
    sim::Tick rto = 0;
    sim::Tick firstFailAt = 0; ///< 0 = progressing
    sim::EventHandle rtoTimer;
    sim::EventHandle memRetryTimer;

    // receiver side
    std::uint64_t seqExpected = 0;
};

/**
 * The kernel TCP endpoint of one server process. Attached to a Node;
 * demultiplexes Proto::Tcp and Proto::Datagram frames from the
 * intra-cluster network.
 */
class TcpComm : public ChannelComm<TcpComm, TcpConn>
{
  public:
    /** Peers are addressed by node id, so @p node must own intra port
     *  node.id(); PANICs otherwise. */
    TcpComm(osim::Node &node, TcpConfig cfg);

    void start() override;
    SendStatus send(sim::NodeId peer, AppMessage msg,
                    const SendParams &params) override;
    void sendDatagram(sim::NodeId peer, std::uint32_t kind,
                      sim::RcAny payload = {}) override;
    void consumed(sim::NodeId peer) override;
    void vanish() override;

    const TcpConfig &config() const { return cfg_; }

  private:
    friend class sim::SnapshotRegistry;
    friend class ChannelComm<TcpComm, TcpConn>;

    enum FrameKind : std::uint32_t
    {
        Syn,
        SynAck,
        Rst,
        Data,
        Ack,
    };

    static constexpr net::Proto wireProto = net::Proto::Tcp;
    static constexpr ControlKinds control{Syn, SynAck, Rst, Rst};

    TcpConn &open(std::uint64_t id, sim::NodeId peer);
    void release(TcpConn &c);
    /** Interrupt-driven reception: no poll delay. */
    std::optional<sim::Tick> pollDelay() const { return std::nullopt; }

    void handleFrame(net::Frame &&f);
    void handleRst(const net::Frame &f);
    void handleData(net::Frame &&f);
    void handleAck(const net::Frame &f);

    /** Start transmitting the head of @p c's send queue, if idle. */
    void pump(TcpConn &c);
    /** Put the head of @p c's send queue on the wire (again). */
    void transmitHead(const TcpConn &c);
    void armRto(TcpConn &c);
    void onRtoFired(std::uint64_t conn_id);
    void maybeUnblockSender(TcpConn &c);

    TcpConfig cfg_;

    /**
     * Snapshot state: listen/receive flags and every connection
     * (queues deep-copied, payload handles refcount-bumped; timer
     * handles are plain {slot, gen} triples that stay valid across an
     * event-queue restore).
     */
    struct State
    {
        bool listening = false;
        bool appReceiving = true;
        ChannelTable<TcpConn> chans;
    };

    State st_;
};

} // namespace performa::proto

#endif // PERFORMA_PROTO_TCP_HH
