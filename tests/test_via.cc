/**
 * @file
 * Unit tests for the VIA model: fail-stop connections, credit-based
 * flow control, RDMA error reporting at both endpoints, memory
 * registration/pinning, and immunity to kernel-memory exhaustion.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.hh"
#include "os/node.hh"
#include "proto/via.hh"
#include "sim/simulation.hh"

using namespace performa;
using namespace performa::sim;
using proto::AppMessage;
using proto::SendStatus;
using proto::ViaMode;

namespace {

struct Endpoint
{
    std::unique_ptr<osim::Node> node;
    std::unique_ptr<proto::ViaComm> via;
    std::vector<AppMessage> received;
    std::vector<NodeId> broken;
    std::vector<NodeId> connected;
    std::vector<NodeId> connectFailed;
    std::vector<std::string> fatal;
    int sendReady = 0;
    bool autoCredit = true;
};

struct ViaWorld
{
    Simulation s{1};
    net::Network intra{s};
    net::Network client{s};
    std::vector<Endpoint> eps;

    explicit ViaWorld(int n = 2, proto::ViaConfig cfg = {},
                      osim::NodeConfig node_cfg = {})
    {
        // Node i owns port i on both networks.
        for (int i = 0; i < n; ++i) {
            intra.addPort();
            client.addPort();
        }
        eps.resize(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            auto id = static_cast<NodeId>(i);
            auto &e = eps[static_cast<std::size_t>(i)];
            e.node = std::make_unique<osim::Node>(s, id, intra, id, client,
                                                  id, node_cfg);
            e.via = std::make_unique<proto::ViaComm>(*e.node, cfg);
            proto::CommCallbacks cbs;
            cbs.onMessage = [&e](NodeId peer, AppMessage &&m) {
                e.received.push_back(std::move(m));
                if (e.autoCredit)
                    e.via->consumed(peer);
            };
            cbs.onPeerBroken = [&e](NodeId p, proto::BreakReason) {
                e.broken.push_back(p);
            };
            cbs.onPeerConnected = [&e](NodeId p) {
                e.connected.push_back(p);
            };
            cbs.onConnectFailed = [&e](NodeId p) {
                e.connectFailed.push_back(p);
            };
            cbs.onSendReady = [&e] { ++e.sendReady; };
            cbs.onFatalError = [&e](const std::string &r) {
                e.fatal.push_back(r);
            };
            e.via->setCallbacks(std::move(cbs));
            e.via->start();
        }
    }

    AppMessage
    msg(std::uint64_t bytes, std::uint32_t type = 1)
    {
        AppMessage m;
        m.type = type;
        m.bytes = bytes;
        return m;
    }
};

} // namespace

TEST(Via, ConnectAndDeliver)
{
    ViaWorld w;
    w.eps[0].via->connect(1);
    w.s.runUntil(sec(1));
    EXPECT_TRUE(w.eps[0].via->connected(1));
    EXPECT_TRUE(w.eps[1].via->connected(0));
    w.eps[0].via->send(1, w.msg(4096), {});
    w.s.runUntil(sec(2));
    ASSERT_EQ(w.eps[1].received.size(), 1u);
}

TEST(Via, ConnectRefusedWhenNotListening)
{
    ViaWorld w;
    w.eps[1].via->shutdown();
    w.eps[0].via->connect(1);
    w.s.runUntil(sec(10));
    EXPECT_EQ(w.eps[0].connectFailed.size(), 1u);
}

TEST(Via, PacketLossBreaksConnectionImmediately)
{
    ViaWorld w;
    w.eps[0].via->connect(1);
    w.s.runUntil(sec(1));
    w.intra.setLinkUp(1, false);
    w.eps[0].via->send(1, w.msg(1000), {});
    w.s.runUntil(sec(2)); // SAN fail-stop: no retry, instant break
    ASSERT_EQ(w.eps[0].broken.size(), 1u);
    EXPECT_FALSE(w.eps[0].via->connected(1));
}

TEST(Via, BreakNotifyReachesPeerOnGracefulExit)
{
    ViaWorld w;
    w.eps[0].via->connect(1);
    w.s.runUntil(sec(1));
    w.eps[0].via->shutdown();
    w.s.runUntil(sec(2));
    ASSERT_EQ(w.eps[1].broken.size(), 1u);
}

TEST(Via, CreditsExhaustThenBlock)
{
    proto::ViaConfig cfg;
    cfg.credits = 4;
    ViaWorld w(2, cfg);
    w.eps[1].autoCredit = false; // receiver never consumes
    w.eps[0].via->connect(1);
    w.s.runUntil(sec(1));
    int ok = 0;
    SendStatus st = SendStatus::Ok;
    while (st == SendStatus::Ok && ok < 50) {
        st = w.eps[0].via->send(1, w.msg(512), {});
        if (st == SendStatus::Ok)
            ++ok;
    }
    EXPECT_EQ(ok, 4);
    EXPECT_EQ(st, SendStatus::WouldBlock);
}

TEST(Via, CreditReturnUnblocksSender)
{
    proto::ViaConfig cfg;
    cfg.credits = 2;
    ViaWorld w(2, cfg);
    w.eps[0].via->connect(1);
    w.s.runUntil(sec(1));
    for (int i = 0; i < 2; ++i)
        EXPECT_EQ(w.eps[0].via->send(1, w.msg(512), {}), SendStatus::Ok);
    // autoCredit consumes on delivery, returning credits.
    w.s.runUntil(sec(2));
    EXPECT_EQ(w.eps[0].via->send(1, w.msg(512), {}), SendStatus::Ok);
    w.s.runUntil(sec(3));
    EXPECT_EQ(w.eps[1].received.size(), 3u);
}

TEST(Via, SendReadyFiresWhenBlockedSenderGetsCredit)
{
    proto::ViaConfig cfg;
    cfg.credits = 1;
    ViaWorld w(2, cfg);
    w.eps[1].autoCredit = false;
    w.eps[0].via->connect(1);
    w.s.runUntil(sec(1));
    EXPECT_EQ(w.eps[0].via->send(1, w.msg(512), {}), SendStatus::Ok);
    EXPECT_EQ(w.eps[0].via->send(1, w.msg(512), {}),
              SendStatus::WouldBlock);
    w.s.runUntil(sec(2));
    w.eps[1].via->consumed(0); // explicit flow-control message
    w.s.runUntil(sec(3));
    EXPECT_EQ(w.eps[0].sendReady, 1);
    EXPECT_EQ(w.eps[0].via->send(1, w.msg(512), {}), SendStatus::Ok);
}

TEST(Via, BadParamsFatalAtSenderForSendRecvMode)
{
    ViaWorld w;
    w.eps[0].via->connect(1);
    w.s.runUntil(sec(1));
    proto::SendParams p;
    p.nullPointer = true;
    EXPECT_EQ(w.eps[0].via->send(1, w.msg(512), p), SendStatus::Fatal);
    w.s.runUntil(sec(2));
    EXPECT_TRUE(w.eps[1].fatal.empty()); // one-node effect
}

TEST(Via, BadParamsFatalAtBothEndsForRemoteWrite)
{
    proto::ViaConfig cfg;
    cfg.mode = ViaMode::RemoteWrite;
    ViaWorld w(2, cfg);
    w.eps[0].via->connect(1);
    w.s.runUntil(sec(1));
    proto::SendParams p;
    p.ptrOffset = 32;
    EXPECT_EQ(w.eps[0].via->send(1, w.msg(512), p), SendStatus::Fatal);
    w.s.runUntil(sec(2));
    ASSERT_EQ(w.eps[1].fatal.size(), 1u); // remote DMA error surfaced
}

TEST(Via, PolledModesDelayDelivery)
{
    proto::ViaConfig fast;
    proto::ViaConfig polled;
    polled.mode = ViaMode::RemoteWrite;
    polled.pollDelay = msec(5);

    Tick t_fast = 0, t_polled = 0;
    {
        ViaWorld w(2, fast);
        w.eps[0].via->connect(1);
        w.s.runUntil(sec(1));
        w.eps[0].via->send(1, w.msg(512), {});
        w.s.events().runAll();
        t_fast = w.s.now();
    }
    {
        ViaWorld w(2, polled);
        w.eps[0].via->connect(1);
        w.s.runUntil(sec(1));
        w.eps[0].via->send(1, w.msg(512), {});
        w.s.events().runAll();
        t_polled = w.s.now();
    }
    EXPECT_GE(t_polled, t_fast + msec(4));
}

TEST(Via, StartPinsCommunicationBuffers)
{
    ViaWorld w;
    EXPECT_GT(w.eps[0].node->pins().pinned(), 0u);
    w.eps[0].via->shutdown();
    EXPECT_EQ(w.eps[0].node->pins().pinned(), 0u);
}

TEST(Via, StartFailsWhenPinBudgetExhausted)
{
    osim::NodeConfig node_cfg;
    node_cfg.pinLimitBytes = 1024; // less than the registered buffers
    ViaWorld w(2, {}, node_cfg);
    EXPECT_FALSE(w.eps[0].via->started());
    EXPECT_EQ(w.eps[0].fatal.size(), 1u);
}

TEST(Via, RegisterMemoryTracksPinBudget)
{
    ViaWorld w;
    auto before = w.eps[0].node->pins().pinned();
    EXPECT_TRUE(w.eps[0].via->registerMemory(1 << 20));
    EXPECT_EQ(w.eps[0].node->pins().pinned(), before + (1 << 20));
    w.eps[0].via->deregisterMemory(1 << 20);
    EXPECT_EQ(w.eps[0].node->pins().pinned(), before);
}

TEST(Via, RegisterMemoryFailsAtInjectedLimit)
{
    ViaWorld w;
    w.eps[0].node->pins().setInjectedLimit(
        w.eps[0].node->pins().pinned() + 100);
    EXPECT_FALSE(w.eps[0].via->registerMemory(1 << 20));
}

TEST(Via, ImmuneToKernelMemoryExhaustion)
{
    ViaWorld w;
    w.eps[0].via->connect(1);
    w.s.runUntil(sec(1));
    w.eps[0].node->kernelMem().setFailInjected(true);
    w.eps[1].node->kernelMem().setFailInjected(true);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(w.eps[0].via->send(1, w.msg(1000), {}), SendStatus::Ok);
    w.s.runUntil(sec(2));
    EXPECT_EQ(w.eps[1].received.size(), 5u); // pre-allocated resources
}

TEST(Via, FrozenNodeNicStillAcksButAppStalls)
{
    proto::ViaConfig cfg;
    cfg.credits = 3;
    ViaWorld w(2, cfg);
    w.eps[0].via->connect(1);
    w.s.runUntil(sec(1));
    w.eps[1].node->freeze(sec(30));
    // Connection survives the freeze (NIC-level hardware ack)...
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(w.eps[0].via->send(1, w.msg(512), {}), SendStatus::Ok);
    w.s.runUntil(sec(5));
    EXPECT_TRUE(w.eps[0].broken.empty());
    // ...but credits stop coming back: the sender now blocks.
    EXPECT_EQ(w.eps[0].via->send(1, w.msg(512), {}),
              SendStatus::WouldBlock);
    EXPECT_TRUE(w.eps[1].received.empty());
    w.s.runUntil(sec(40)); // unfreeze: deliveries drain
    EXPECT_EQ(w.eps[1].received.size(), 3u);
}

TEST(Via, CrashedPeerDetectedOnNextSend)
{
    ViaWorld w;
    w.eps[0].via->connect(1);
    w.s.runUntil(sec(1));
    w.eps[1].node->crash(sec(60));
    w.eps[0].via->send(1, w.msg(512), {});
    w.s.runUntil(sec(2));
    ASSERT_EQ(w.eps[0].broken.size(), 1u);
}

TEST(Via, DisconnectBreaksPeerSilentlyLocally)
{
    ViaWorld w;
    w.eps[0].via->connect(1);
    w.s.runUntil(sec(1));
    w.eps[0].via->disconnect(1);
    w.s.runUntil(sec(2));
    EXPECT_TRUE(w.eps[0].broken.empty());
    ASSERT_EQ(w.eps[1].broken.size(), 1u);
}

TEST(Via, ZeroCopySendCostLowerThanCopyMode)
{
    proto::ViaConfig copy_cfg;
    copy_cfg.costs.sendPerKb = 9.0;
    copy_cfg.costs.sendFixed = usec(12);
    proto::ViaConfig zc_cfg = copy_cfg;
    zc_cfg.costs.sendPerKb = 3.0;
    ViaWorld a(2, copy_cfg);
    ViaWorld b(2, zc_cfg);
    EXPECT_GT(a.eps[0].via->sendCost(8192), b.eps[0].via->sendCost(8192));
}

TEST(Via, SimultaneousConnectsConvergeOnOneVi)
{
    ViaWorld w;
    // Both ends connect at the same instant (rejoin race).
    w.eps[0].via->connect(1);
    w.eps[1].via->connect(0);
    w.s.runUntil(sec(3));
    ASSERT_TRUE(w.eps[0].via->connected(1));
    ASSERT_TRUE(w.eps[1].via->connected(0));
    // The agreed VI must actually carry data in both directions.
    w.eps[0].via->send(1, w.msg(512), {});
    w.eps[1].via->send(0, w.msg(512), {});
    w.s.runUntil(sec(4));
    EXPECT_EQ(w.eps[1].received.size(), 1u);
    EXPECT_EQ(w.eps[0].received.size(), 1u);
    EXPECT_TRUE(w.eps[0].broken.empty());
    EXPECT_TRUE(w.eps[1].broken.empty());
}

TEST(Via, QuietViReplacementWakesBlockedSender)
{
    proto::ViaConfig cfg;
    cfg.credits = 1;
    ViaWorld w(2, cfg);
    w.eps[1].autoCredit = false;
    w.eps[0].via->connect(1);
    w.s.runUntil(sec(1));
    EXPECT_EQ(w.eps[0].via->send(1, w.msg(512), {}), SendStatus::Ok);
    EXPECT_EQ(w.eps[0].via->send(1, w.msg(512), {}),
              SendStatus::WouldBlock);
    // Peer's process bounces and reconnects: the old VI is replaced
    // quietly; the blocked sender must get a send-ready wakeup.
    w.eps[1].via->shutdown();
    w.s.runUntil(sec(2));
    w.eps[1].via->start();
    w.eps[1].via->connect(0);
    w.s.runUntil(sec(3));
    EXPECT_GE(w.eps[0].sendReady, 1);
}

TEST(Via, ResumedReceiverDeliversQueuedMessagesInViIdOrder)
{
    // SIGCONT walks the VI table in VI-id order, not in peer order:
    // node 2 accepts node 3's VI before node 1's, so node 3's message
    // is handed over first even though node 1's arrived first.
    ViaWorld w(4);
    w.eps[3].via->connect(2);
    w.s.runUntil(msec(100));
    w.eps[1].via->connect(2);
    w.s.runUntil(msec(200));
    ASSERT_TRUE(w.eps[2].via->connected(3));
    ASSERT_TRUE(w.eps[2].via->connected(1));

    w.eps[2].via->setAppReceiving(false); // SIGSTOP
    ASSERT_EQ(w.eps[1].via->send(2, w.msg(512, 1), {}), SendStatus::Ok);
    w.s.runUntil(msec(300));
    ASSERT_EQ(w.eps[3].via->send(2, w.msg(512, 3), {}), SendStatus::Ok);
    w.s.runUntil(msec(400));
    EXPECT_TRUE(w.eps[2].received.empty());

    w.eps[2].via->setAppReceiving(true); // SIGCONT
    w.s.runUntil(msec(500));
    ASSERT_EQ(w.eps[2].received.size(), 2u);
    EXPECT_EQ(w.eps[2].received[0].type, 3u);
    EXPECT_EQ(w.eps[2].received[1].type, 1u);
}

TEST(Via, ConnectOverPendingConnectLeavesTheOldOneLive)
{
    // A second connect() while the first is still pending (a PRESS
    // membership probe can do this) does not drop the first: each
    // runs to its own outcome and reports it.
    ViaWorld w;
    w.intra.setSwitchUp(false);
    w.eps[0].via->connect(1);
    w.eps[0].via->connect(1);
    w.s.runUntil(sec(10)); // both exhaust their ConnReq retries
    EXPECT_EQ(w.eps[0].connectFailed, (std::vector<NodeId>{1, 1}));

    w.intra.setSwitchUp(true);
    w.eps[0].via->connect(1);
    w.eps[0].via->connect(1);
    w.s.runUntil(sec(11));
    EXPECT_EQ(w.eps[0].connected, (std::vector<NodeId>{1, 1}));
    EXPECT_EQ(w.eps[1].connected, (std::vector<NodeId>{0, 0}));
    // The newer VI carries the traffic in both directions.
    ASSERT_EQ(w.eps[0].via->send(1, w.msg(512), {}), SendStatus::Ok);
    ASSERT_EQ(w.eps[1].via->send(0, w.msg(512), {}), SendStatus::Ok);
    w.s.runUntil(sec(12));
    EXPECT_EQ(w.eps[1].received.size(), 1u);
    EXPECT_EQ(w.eps[0].received.size(), 1u);
    EXPECT_TRUE(w.eps[0].broken.empty());
    EXPECT_TRUE(w.eps[1].broken.empty());
}

TEST(ViaDeathTest, NodeMustOwnTheIntraPortOfItsId)
{
    // Peers are addressed by node id, so a node on another intra port
    // would send every frame to the wrong peer: construction refuses.
    Simulation s{1};
    net::Network intra{s};
    net::Network client{s};
    intra.addPort();
    net::PortId port1 = intra.addPort();
    osim::Node node(s, 0, intra, port1, client, client.addPort());
    EXPECT_DEATH({ proto::ViaComm comm(node, proto::ViaConfig{}); },
                 "node i must own intra port i");
}
