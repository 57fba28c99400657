/**
 * @file
 * Tests for the loadgen subsystem: the profile registry, rate
 * modulation, Pareto file sizes, the split RNG stream contract, the
 * Tally, the session farm, and latency-stamp recording.
 */

#include <gtest/gtest.h>

#include <map>

#include "loadgen/client_farm.hh"
#include "loadgen/generator.hh"
#include "loadgen/load_profile.hh"
#include "loadgen/session_farm.hh"
#include "press/messages.hh"
#include "sim/simulation.hh"

using namespace performa;
using namespace performa::sim;

namespace {

/** A bare network with scripted "server" ports that echo latency
 *  stamps like the PRESS server does. */
struct StampWorld
{
    Simulation s{3};
    net::Network n{s};
    std::vector<net::PortId> servers;
    std::vector<net::PortId> clients;
    std::map<net::PortId, int> requestsPerServer;
    bool respond = true;
    Tick serviceDelay = usec(500);

    StampWorld()
    {
        for (int i = 0; i < 4; ++i) {
            net::PortId p = n.addPort();
            servers.push_back(p);
            n.setHandler(p, [this, p](net::Frame &&f) {
                ++requestsPerServer[p];
                if (!respond)
                    return;
                auto *req = f.payload.get<press::ClientRequestBody>();
                net::Frame r;
                r.srcPort = p;
                r.dstPort = req->replyPort;
                r.proto = net::Proto::Client;
                r.kind = press::ClientResponse;
                r.bytes = 8192;
                auto body = s.makePayload<press::ClientResponseBody>();
                body->req = req->req;
                body->sentAt = req->sentAt;
                body->acceptedAt = s.now();
                body->serviceStartAt = s.now() + serviceDelay;
                r.payload = std::move(body);
                n.send(std::move(r));
            });
        }
        for (int i = 0; i < 2; ++i)
            clients.push_back(n.addPort());
    }
};

loadgen::WorkloadConfig
smallConfig()
{
    loadgen::WorkloadConfig cfg;
    cfg.requestRate = 500;
    cfg.numFiles = 1000;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------

TEST(LoadProfile, RegistryKnowsTheBuiltins)
{
    for (const char *name :
         {"steady", "sessions", "pareto", "diurnal", "flashcrowd"}) {
        auto p = loadgen::profileByName(name);
        ASSERT_TRUE(p.has_value()) << name;
        EXPECT_EQ(p->name, name);
    }
    EXPECT_FALSE(loadgen::profileByName("nosuch").has_value());
    EXPECT_TRUE(loadgen::profileByName("steady")->isDefault());
    EXPECT_FALSE(loadgen::profileByName("flashcrowd")->isDefault());
    EXPECT_TRUE(loadgen::profileByName("sessions")->sessions);
    EXPECT_TRUE(loadgen::profileByName("pareto")->pareto.enabled);
}

TEST(LoadProfile, FlashCrowdRampHoldAndDecay)
{
    loadgen::LoadProfileSpec p;
    p.rateScale = 1.0;
    p.flash.at = sec(100);
    p.flash.ramp = sec(10);
    p.flash.hold = sec(30);
    p.flash.peak = 3.0;

    EXPECT_DOUBLE_EQ(loadgen::rateMultiplierAt(p, sec(50)), 1.0);
    // Halfway up the ramp: 1 + (3-1)/2.
    EXPECT_NEAR(loadgen::rateMultiplierAt(p, sec(105)), 2.0, 1e-9);
    EXPECT_DOUBLE_EQ(loadgen::rateMultiplierAt(p, sec(120)), 3.0);
    // Halfway down the back ramp.
    EXPECT_NEAR(loadgen::rateMultiplierAt(p, sec(145)), 2.0, 1e-9);
    EXPECT_DOUBLE_EQ(loadgen::rateMultiplierAt(p, sec(200)), 1.0);
}

TEST(LoadProfile, DiurnalOscillatesAroundBase)
{
    loadgen::LoadProfileSpec p;
    p.diurnal.period = sec(100);
    p.diurnal.amplitude = 0.5;

    double lo = 10, hi = 0, sum = 0;
    int nsamples = 100;
    for (int i = 0; i < nsamples; ++i) {
        double m = loadgen::rateMultiplierAt(p, sec(i));
        lo = std::min(lo, m);
        hi = std::max(hi, m);
        sum += m;
    }
    EXPECT_NEAR(lo, 0.5, 0.05);
    EXPECT_NEAR(hi, 1.5, 0.05);
    EXPECT_NEAR(sum / nsamples, 1.0, 0.05);
}

TEST(LoadProfile, ParetoSizesDeterministicHeavyTailedClamped)
{
    loadgen::ParetoSizes spec;
    spec.enabled = true;

    // A property of the file set: independent of any RNG.
    EXPECT_EQ(loadgen::paretoFileBytes(spec, 17),
              loadgen::paretoFileBytes(spec, 17));

    double sum = 0;
    std::uint64_t maxSeen = 0;
    const int n = 20000;
    for (int f = 0; f < n; ++f) {
        std::uint64_t b = loadgen::paretoFileBytes(spec, f);
        EXPECT_GE(b, 1u);
        EXPECT_LE(b, spec.maxBytes);
        sum += static_cast<double>(b);
        maxSeen = std::max(maxSeen, b);
    }
    // Mean lands near the target (clipping pulls it slightly down).
    EXPECT_NEAR(sum / n, static_cast<double>(spec.meanBytes),
                0.25 * static_cast<double>(spec.meanBytes));
    // Heavy tail: some file is far beyond the mean.
    EXPECT_GT(maxSeen, 10 * spec.meanBytes);

    auto fn = loadgen::makeFileSizeFn(spec);
    ASSERT_TRUE(fn);
    EXPECT_EQ(fn(99), loadgen::paretoFileBytes(spec, 99));
    EXPECT_FALSE(loadgen::makeFileSizeFn(loadgen::ParetoSizes{}));
}

// ---------------------------------------------------------------------
// Split RNG contract
// ---------------------------------------------------------------------

TEST(SplitRng, SplitStreamDoesNotPerturbTheSharedStream)
{
    Simulation a(99), b(99);

    // b creates and drains a split stream; a never does.
    Rng split = b.splitRng(loadgen::kLoadgenRngSalt);
    for (int i = 0; i < 1000; ++i)
        (void)split.uniform();

    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.rng().uniform(), b.rng().uniform());
}

TEST(SplitRng, DistinctSaltsGiveDistinctStreams)
{
    Simulation s(99);
    Rng r1 = s.splitRng(1), r2 = s.splitRng(2), r1b = s.splitRng(1);
    bool anyDiff = false;
    for (int i = 0; i < 32; ++i) {
        std::uint64_t a = r1.uniformInt(0, 1u << 30);
        std::uint64_t b = r2.uniformInt(0, 1u << 30);
        EXPECT_EQ(a, r1b.uniformInt(0, 1u << 30)); // same salt reproduces
        anyDiff = anyDiff || a != b;
    }
    EXPECT_TRUE(anyDiff);
}

// ---------------------------------------------------------------------
// Latency stamp decoding
// ---------------------------------------------------------------------

TEST(RecordResponseLatency, SplitsStagesFromStamps)
{
    StageLatencyTimeline tl;
    press::ClientResponseBody body;
    body.sentAt = msec(100);
    body.acceptedAt = msec(102);
    body.serviceStartAt = msec(110);
    Tick now = msec(125);

    loadgen::recordResponseLatency(tl, now, body);
    EXPECT_EQ(tl.cumulative(LatencyStage::Total).count(), 1u);
    EXPECT_DOUBLE_EQ(tl.cumulative(LatencyStage::Total).quantile(1.0),
                     static_cast<double>(msec(25)));
    EXPECT_DOUBLE_EQ(
        tl.cumulative(LatencyStage::Connect).quantile(1.0),
        static_cast<double>(msec(2)));
    EXPECT_DOUBLE_EQ(tl.cumulative(LatencyStage::Queue).quantile(1.0),
                     static_cast<double>(msec(8)));
    EXPECT_DOUBLE_EQ(
        tl.cumulative(LatencyStage::Service).quantile(1.0),
        static_cast<double>(msec(15)));
}

TEST(RecordResponseLatency, UnstampedResponsesRecordNothing)
{
    StageLatencyTimeline tl;
    press::ClientResponseBody body; // sentAt == 0
    loadgen::recordResponseLatency(tl, msec(50), body);
    EXPECT_EQ(tl.cumulative(LatencyStage::Total).count(), 0u);
}

TEST(RecordResponseLatency, ConnectSkippedOnReusedConnections)
{
    StageLatencyTimeline tl;
    press::ClientResponseBody body;
    body.sentAt = msec(10);
    body.acceptedAt = msec(11);
    loadgen::recordResponseLatency(tl, msec(20), body,
                              /*record_connect=*/false);
    EXPECT_EQ(tl.cumulative(LatencyStage::Total).count(), 1u);
    EXPECT_EQ(tl.cumulative(LatencyStage::Connect).count(), 0u);
}

// ---------------------------------------------------------------------
// Tally
// ---------------------------------------------------------------------

TEST(Tally, RecordsTotalsAndPerSecondSeries)
{
    loadgen::Tally t(8);
    t.offer(msec(100));
    t.offer(msec(1500));
    t.serve(msec(1600));
    t.fail(sec(3));
    EXPECT_EQ(t.totalOffered, 2u);
    EXPECT_EQ(t.totalServed, 1u);
    EXPECT_EQ(t.totalFailed, 1u);
    EXPECT_EQ(t.offered.count(0), 1u);
    EXPECT_EQ(t.offered.count(1), 1u);
    EXPECT_EQ(t.served.count(1), 1u);
    EXPECT_EQ(t.failed.count(3), 1u);
    EXPECT_EQ(t.timeline.sliceCount(), 8u);
}

// ---------------------------------------------------------------------
// ClientFarm latency recording
// ---------------------------------------------------------------------

TEST(ClientFarmLatency, EveryServedRequestLandsInTheTimeline)
{
    StampWorld w;
    loadgen::ClientFarm farm(w.s, w.n, w.servers, w.clients, smallConfig());
    farm.start();
    w.s.runUntil(sec(10));
    farm.stop();
    w.s.runUntil(sec(12));

    EXPECT_GT(farm.tally().totalServed, 0u);
    const auto &tl = farm.tally().timeline;
    EXPECT_EQ(tl.cumulative(LatencyStage::Total).count(),
              farm.tally().totalServed);
    EXPECT_EQ(tl.cumulative(LatencyStage::Connect).count(),
              farm.tally().totalServed);
}

// ---------------------------------------------------------------------
// SessionFarm
// ---------------------------------------------------------------------

TEST(SessionFarm, ServesAndChurnsSessions)
{
    StampWorld w;
    auto profile = *loadgen::profileByName("sessions");
    loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients, smallConfig(),
                         profile);
    EXPECT_GT(farm.sessionCount(), 0u);
    farm.start();
    w.s.runUntil(sec(30));
    farm.stop();
    w.s.runUntil(sec(32));

    EXPECT_GT(farm.tally().totalServed, 0u);
    EXPECT_EQ(farm.tally().totalServed, farm.tally().totalOffered);
    EXPECT_EQ(farm.tally().totalFailed, 0u);
    EXPECT_GT(farm.completedSessions(), 0u);

    // Each request records a total; only connection-opening requests
    // record a connect.
    const auto &tl = farm.tally().timeline;
    EXPECT_EQ(tl.cumulative(LatencyStage::Total).count(),
              farm.tally().totalServed);
    EXPECT_GT(tl.cumulative(LatencyStage::Connect).count(), 0u);
    EXPECT_LT(tl.cumulative(LatencyStage::Connect).count(),
              tl.cumulative(LatencyStage::Total).count());
}

TEST(SessionFarm, DeterministicForSameSeed)
{
    auto run = [] {
        StampWorld w;
        auto profile = *loadgen::profileByName("sessions");
        loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients,
                             smallConfig(), profile);
        farm.start();
        w.s.runUntil(sec(20));
        farm.stop();
        return std::tuple(farm.tally().totalServed, farm.tally().totalOffered,
                          farm.completedSessions());
    };
    EXPECT_EQ(run(), run());
}

TEST(SessionFarm, TimeoutsAbandonTheSessionAndReconnect)
{
    StampWorld w;
    w.respond = false;
    auto profile = *loadgen::profileByName("sessions");
    loadgen::WorkloadConfig cfg = smallConfig();
    cfg.requestRate = 50;
    loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients, cfg, profile);
    farm.start();
    w.s.runUntil(sec(30));
    farm.stop();
    w.s.runUntil(sec(40));

    EXPECT_GT(farm.tally().totalFailed, 0u);
    EXPECT_EQ(farm.tally().totalServed, 0u);
    // Abandoned sessions count as completed: the seat was re-used.
    EXPECT_GT(farm.completedSessions(), 0u);
}

namespace {

/** The sessions profile with a fixed population of @p users. */
loadgen::LoadProfileSpec
sessionsOf(std::size_t users, Tick think)
{
    auto profile = *loadgen::profileByName("sessions");
    profile.sessionCount = users;
    profile.meanThink = think;
    return profile;
}

} // namespace

TEST(SessionFarm, ThroughputScalesWithSessions)
{
    double rates[2];
    int idx = 0;
    for (std::size_t users : {20, 80}) {
        StampWorld w;
        loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients,
                                  smallConfig(),
                                  sessionsOf(users, msec(20)));
        farm.start();
        w.s.runUntil(sec(10));
        rates[idx++] = farm.tally().served.meanRate(sec(2), sec(10));
    }
    EXPECT_GT(rates[1], 3.0 * rates[0]);
}

TEST(SessionFarm, SelfThrottlesWhenServerIsSilent)
{
    StampWorld w;
    w.respond = false;
    loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients,
                              smallConfig(), sessionsOf(30, msec(10)));
    farm.start();
    w.s.runUntil(sec(20));
    // Each seat fails at most once per 2 s connect timeout: bounded
    // failures, unlike the open-loop farm which keeps firing.
    const loadgen::Tally &t = farm.tally();
    EXPECT_LE(t.totalFailed, 30u * 11u);
    EXPECT_GT(t.totalFailed, 30u * 5u);
    EXPECT_EQ(t.totalServed, 0u);
}

TEST(SessionFarm, StopCeasesActivity)
{
    StampWorld w;
    loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients,
                              smallConfig(), sessionsOf(10, msec(10)));
    farm.start();
    w.s.runUntil(sec(2));
    farm.stop();
    std::uint64_t offered = farm.tally().totalOffered;
    std::uint64_t served = farm.tally().totalServed;
    ASSERT_GT(served, 0u);
    w.s.runUntil(sec(10));
    EXPECT_EQ(farm.tally().totalOffered, offered);
    EXPECT_EQ(farm.tally().totalServed, served);
}

TEST(SessionFarm, ServedRequestsDoNotLeakExpiryTimers)
{
    // Every request puts its expiry on a lane, and a response does not
    // remove it: the expiry fires as a no-op at its deadline. So the
    // expiries waiting at any time belong to requests sent within the
    // last timeout, never one per request ever served.
    StampWorld w;
    constexpr std::size_t users = 50;
    loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients,
                              smallConfig(), sessionsOf(users, msec(10)));
    farm.start();
    w.s.runUntil(sec(5));
    std::uint64_t offeredAt5 = farm.tally().totalOffered;
    w.s.runUntil(sec(11));
    ASSERT_GT(farm.tally().totalServed, 20000u);
    const EventQueue &q = w.s.events();
    // The longest timeout is 6 s: every expiry of a request sent by
    // 5 s has fired by 11 s.
    EXPECT_LE(q.laneDepth(), farm.tally().totalOffered - offeredAt5);
    // Heap events: one think timer per seat plus a handful of
    // in-flight frames — nothing proportional to requests served.
    EXPECT_LT(q.pending() - q.laneDepth(), users * 3);
    EXPECT_LT(q.heapSize(), users * 6);
}

TEST(SessionFarm, StopCancelsInFlightExpiries)
{
    // Requests in flight at stop() are abandoned: their expiries fire
    // as no-ops, so running past the timeout records no late failures
    // and leaves nothing queued.
    StampWorld w;
    w.respond = false;
    loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients,
                              smallConfig(), sessionsOf(20, msec(10)));
    farm.start();
    w.s.runUntil(sec(1)); // requests sent, connect timeout not reached
    ASSERT_GT(farm.tally().totalOffered, 0u);
    ASSERT_EQ(farm.tally().totalFailed, 0u);
    farm.stop();
    w.s.runUntil(sec(30));
    EXPECT_EQ(farm.tally().totalFailed, 0u);
    EXPECT_EQ(w.s.events().pending(), 0u);
}

TEST(SessionFarm, AccountingSumsWhileRunning)
{
    // Every offered request is served, failed, or still in flight —
    // and at most one request per seat can be in flight.
    StampWorld w;
    constexpr std::size_t users = 30;
    loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients,
                              smallConfig(), sessionsOf(users, msec(10)));
    farm.start();
    w.s.runUntil(sec(3));
    const loadgen::Tally &t = farm.tally();
    ASSERT_GE(t.totalOffered, t.totalServed + t.totalFailed);
    EXPECT_LE(t.totalOffered - t.totalServed - t.totalFailed, users);
}

// ---------------------------------------------------------------------
// makeLoadGenerator
// ---------------------------------------------------------------------

TEST(MakeLoadGenerator, PicksTheGeneratorForTheProfile)
{
    StampWorld w;
    auto open = loadgen::makeLoadGenerator(w.s, w.n, w.servers, w.clients,
                                      smallConfig(),
                                      *loadgen::profileByName("steady"));
    auto sess = loadgen::makeLoadGenerator(w.s, w.n, w.servers, w.clients,
                                      smallConfig(),
                                      *loadgen::profileByName("sessions"));
    EXPECT_NE(dynamic_cast<loadgen::ClientFarm *>(open.get()), nullptr);
    EXPECT_NE(dynamic_cast<loadgen::SessionFarm *>(sess.get()), nullptr);
}

TEST(MakeLoadGenerator, FlashCrowdRaisesOfferedRateDuringBurst)
{
    StampWorld w;
    auto profile = *loadgen::profileByName("flashcrowd");
    auto gen = loadgen::makeLoadGenerator(w.s, w.n, w.servers, w.clients,
                                     smallConfig(), profile);
    gen->start();
    w.s.runUntil(sec(80));
    gen->stop();

    // Base (scaled) rate before the burst at t=50s; peak inside it.
    double base = gen->tally().offered.meanRate(sec(10), sec(40));
    double burst = gen->tally().offered.meanRate(sec(62), sec(78));
    EXPECT_GT(burst, base * 1.5);
}
