/**
 * @file
 * Unit tests for the bad-parameter interposition layer: one-shot
 * corruption of send parameters, receive-side descriptor corruption,
 * and transparent pass-through otherwise.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.hh"
#include "os/node.hh"
#include "proto/interpose.hh"
#include "proto/tcp.hh"
#include "sim/simulation.hh"

using namespace performa;
using namespace performa::sim;
using proto::AppMessage;
using proto::Corruption;
using proto::SendStatus;

namespace {

struct InterposeWorld
{
    Simulation s{1};
    net::Network intra{s};
    net::Network client{s};
    std::unique_ptr<osim::Node> n0, n1;
    std::unique_ptr<proto::FaultInterposer> a;
    std::unique_ptr<proto::TcpComm> b;
    std::vector<AppMessage> received;
    std::vector<std::string> fatalA, fatalB;

    InterposeWorld()
    {
        net::PortId p0 = intra.addPort(), p1 = intra.addPort();
        net::PortId c0 = client.addPort(), c1 = client.addPort();
        n0 = std::make_unique<osim::Node>(s, 0, intra, p0, client, c0);
        n1 = std::make_unique<osim::Node>(s, 1, intra, p1, client, c1);
        a = std::make_unique<proto::FaultInterposer>(
            std::make_unique<proto::TcpComm>(*n0, proto::TcpConfig{}));
        b = std::make_unique<proto::TcpComm>(*n1, proto::TcpConfig{});

        proto::CommCallbacks cbs_a;
        cbs_a.onFatalError = [this](const std::string &r) {
            fatalA.push_back(r);
        };
        a->setCallbacks(std::move(cbs_a));

        proto::CommCallbacks cbs_b;
        cbs_b.onMessage = [this](NodeId, AppMessage &&m) {
            received.push_back(std::move(m));
        };
        cbs_b.onFatalError = [this](const std::string &r) {
            fatalB.push_back(r);
        };
        b->setCallbacks(std::move(cbs_b));

        a->start();
        b->start();
        a->connect(1);
        s.runUntil(sec(1));
    }

    AppMessage
    msg(std::uint64_t bytes)
    {
        AppMessage m;
        m.type = 1;
        m.bytes = bytes;
        return m;
    }
};

} // namespace

TEST(Interpose, PassThroughWhenUnarmed)
{
    InterposeWorld w;
    EXPECT_EQ(w.a->send(1, w.msg(512), {}), SendStatus::Ok);
    w.s.runUntil(sec(2));
    EXPECT_EQ(w.received.size(), 1u);
    EXPECT_TRUE(w.fatalA.empty());
    EXPECT_TRUE(w.fatalB.empty());
}

TEST(Interpose, ArmedNullPointerHitsNextSendOnly)
{
    InterposeWorld w;
    w.a->armSend(Corruption::NullPointer);
    EXPECT_TRUE(w.a->sendArmed());
    EXPECT_EQ(w.a->send(1, w.msg(512), {}), SendStatus::Efault);
    EXPECT_FALSE(w.a->sendArmed());
    // Next send is clean again.
    EXPECT_EQ(w.a->send(1, w.msg(512), {}), SendStatus::Ok);
    w.s.runUntil(sec(2));
    EXPECT_EQ(w.received.size(), 1u);
}

TEST(Interpose, ArmedOffByNSizeDesyncsStream)
{
    InterposeWorld w;
    w.a->armSend(Corruption::OffByNSize, 24);
    EXPECT_EQ(w.a->send(1, w.msg(512), {}), SendStatus::Ok);
    w.s.runUntil(sec(2));
    EXPECT_TRUE(w.received.empty());
    ASSERT_EQ(w.fatalB.size(), 1u); // receiver-side framing error
}

TEST(Interpose, ArmedOffByNPtrDesyncsStream)
{
    InterposeWorld w;
    w.a->armSend(Corruption::OffByNPtr, 8);
    EXPECT_EQ(w.a->send(1, w.msg(512), {}), SendStatus::Ok);
    w.s.runUntil(sec(2));
    EXPECT_EQ(w.fatalB.size(), 1u);
}

TEST(Interpose, ArmedRecvCorruptsNextDelivery)
{
    InterposeWorld w;
    // Arm the receive side of endpoint A; B sends to A.
    w.b->connect(0);
    w.s.runUntil(sec(2));
    w.a->armRecv(Corruption::NullPointer);
    EXPECT_TRUE(w.a->recvArmed());
    w.b->send(0, w.msg(512), {});
    w.s.runUntil(sec(3));
    ASSERT_EQ(w.fatalA.size(), 1u);
    EXPECT_FALSE(w.a->recvArmed());
}

TEST(Interpose, ForwardsCostsAndState)
{
    InterposeWorld w;
    EXPECT_EQ(w.a->sendCost(4096), w.a->inner().sendCost(4096));
    EXPECT_TRUE(w.a->connected(1));
    w.a->disconnect(1);
    EXPECT_FALSE(w.a->connected(1));
}
