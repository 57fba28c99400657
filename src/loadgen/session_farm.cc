#include "loadgen/session_farm.hh"

#include <random>

#include "press/messages.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace performa::loadgen {

namespace {

/** Population that offers roughly the configured open-loop rate:
 *  each user contributes ~1/(think + a nominal response) req/s. */
std::size_t
derivedSessionCount(const WorkloadConfig &cfg,
                    const LoadProfileSpec &profile)
{
    double think_s = sim::toSeconds(profile.meanThink);
    double per_user = 1.0 / (think_s + 0.05);
    double n = cfg.requestRate * profile.rateScale / per_user;
    return n < 1.0 ? 1 : static_cast<std::size_t>(n);
}

} // namespace

SessionFarm::SessionFarm(sim::Simulation &s, net::Network &client_net,
                         std::vector<net::PortId> server_ports,
                         std::vector<net::PortId> client_ports,
                         WorkloadConfig cfg, LoadProfileSpec profile)
    : sim_(s), net_(client_net), serverPorts_(std::move(server_ports)),
      clientPorts_(std::move(client_ports)), cfg_(cfg),
      profile_(std::move(profile)),
      zipf_(cfg.numFiles, cfg.zipfAlpha),
      connectLane_(s.events().addLane<&SessionFarm::expire>(
          cfg.connectTimeout, this)),
      requestLane_(s.events().addLane<&SessionFarm::expire>(
          cfg.requestTimeout, this)),
      st_{.rng = s.splitRng(kLoadgenRngSalt),
          .sessions = {},
          .tally = Tally(profile_.reserveSlices)}
{
    if (serverPorts_.empty() || clientPorts_.empty())
        FATAL("SessionFarm needs at least one server and client port");
    std::size_t n = profile_.sessionCount
                        ? profile_.sessionCount
                        : derivedSessionCount(cfg_, profile_);
    st_.sessions.resize(n);
    for (net::PortId p : clientPorts_) {
        net_.setHandler(p,
            [this](net::Frame &&f) { onResponse(std::move(f)); });
    }
}

void
SessionFarm::start()
{
    if (st_.running)
        return;
    st_.running = true;
    ++st_.generation;
    for (std::size_t i = 0; i < st_.sessions.size(); ++i)
        beginSession(i);
}

void
SessionFarm::stop()
{
    st_.running = false;
    ++st_.generation;
    // Abandon in-flight requests: their seq bump makes late responses
    // and pending expiries no-ops.
    for (auto &sess : st_.sessions) {
        if (sess.inFlight) {
            sess.inFlight = false;
            ++sess.seq;
        }
    }
}

void
SessionFarm::beginSession(std::size_t idx)
{
    Session &sess = st_.sessions[idx];
    // A fresh user: new connection to the next server (round-robin
    // DNS), a geometrically distributed number of requests.
    sess.server = st_.rrServer;
    st_.rrServer = (st_.rrServer + 1) % serverPorts_.size();
    double mean = profile_.meanRequestsPerSession;
    if (mean < 1.0)
        mean = 1.0;
    sess.remaining =
        1 + std::geometric_distribution<std::uint32_t>(1.0 / mean)(
                st_.rng.engine());
    sess.firstRequest = true;
    sess.inFlight = false;
    think(idx);
}

void
SessionFarm::think(std::size_t idx)
{
    std::uint64_t gen = st_.generation;
    sim_.scheduleIn(st_.rng.exponential(profile_.meanThink),
                    [this, idx, gen] {
                        if (gen == st_.generation && st_.running)
                            sendRequest(idx);
                    });
}

void
SessionFarm::sendRequest(std::size_t idx)
{
    Session &sess = st_.sessions[idx];
    sess.sentAt = sim_.now();
    sess.inFlight = true;
    ++sess.seq;

    sim::FileId file = static_cast<sim::FileId>(zipf_.sample(st_.rng));
    net::PortId client = clientPorts_[idx % clientPorts_.size()];

    st_.tally.offer(sim_.now());

    auto body = sim_.makePayload<press::ClientRequestBody>();
    body->req = encodeReq(idx, sess.seq);
    body->file = file;
    body->replyPort = client;
    body->sentAt = sim_.now();

    net::Frame f;
    f.srcPort = client;
    f.dstPort = serverPorts_[sess.server];
    f.proto = net::Proto::Client;
    f.kind = press::ClientRequest;
    f.bytes = cfg_.requestBytes;
    f.payload = std::move(body);
    net_.send(std::move(f));

    // First request on a connection pays the connect timeout; later
    // ones reuse the connection and get the request timeout.
    sim_.events().scheduleLane(
        sess.firstRequest ? connectLane_ : requestLane_,
        encodeReq(idx, sess.seq));
}

void
SessionFarm::onResponse(net::Frame &&f)
{
    if (f.kind != press::ClientResponse || !f.payload)
        return;
    auto *body = f.payload.get<press::ClientResponseBody>();
    std::size_t idx = static_cast<std::size_t>(body->req >> 32);
    if (idx == 0 || idx > st_.sessions.size())
        return;
    Session &sess = st_.sessions[idx - 1];
    std::uint32_t seq = static_cast<std::uint32_t>(body->req);
    if (!sess.inFlight || sess.seq != seq)
        return; // timed out (or from a previous session); drop

    sess.inFlight = false;

    recordResponseLatency(st_.tally.timeline, sim_.now(), *body,
                          sess.firstRequest);
    sess.firstRequest = false;
    st_.tally.serve(sim_.now());

    if (--sess.remaining == 0) {
        ++st_.completedSessions;
        if (st_.running)
            beginSession(idx - 1);
        return;
    }
    if (st_.running)
        think(idx - 1);
}

void
SessionFarm::expire(sim::RequestId req)
{
    std::size_t idx = static_cast<std::size_t>(req >> 32) - 1;
    Session &sess = st_.sessions[idx];
    if (!sess.inFlight || sess.seq != static_cast<std::uint32_t>(req))
        return; // answered in time
    sess.inFlight = false;
    st_.tally.fail(sim_.now());
    // The user gives up on this server: drop the connection and
    // reconnect (next session picks the next server round-robin).
    ++st_.completedSessions;
    if (st_.running)
        beginSession(idx);
}

void
SessionFarm::registerWith(sim::SnapshotRegistry &reg)
{
    reg.attach(*this);
}

} // namespace performa::loadgen
