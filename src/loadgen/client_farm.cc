#include "loadgen/client_farm.hh"

#include <bit>
#include <memory>

#include "press/messages.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace performa::loadgen {

namespace {

/** Initial live-flag ring: 4096 requests in flight before it grows. */
constexpr std::size_t minLiveWords = 64;

} // namespace

ClientFarm::ClientFarm(sim::Simulation &s, net::Network &client_net,
                       std::vector<net::PortId> server_ports,
                       std::vector<net::PortId> client_ports,
                       WorkloadConfig cfg, LoadProfileSpec profile)
    : sim_(s), net_(client_net), serverPorts_(std::move(server_ports)),
      clientPorts_(std::move(client_ports)), cfg_(cfg),
      profile_(std::move(profile)), shaped_(!profile_.isDefault()),
      zipf_(cfg.numFiles, cfg.zipfAlpha),
      expiryLane_(s.events().addLane<&ClientFarm::expire>(
          cfg.requestTimeout, this)),
      st_{.splitRng = s.splitRng(kLoadgenRngSalt),
          .live = std::vector<std::uint64_t>(minLiveWords),
          .tally = Tally(profile_.reserveSlices)}
{
    if (serverPorts_.empty() || clientPorts_.empty())
        FATAL("ClientFarm needs at least one server and client port");
    for (net::PortId p : clientPorts_) {
        net_.setHandler(p,
            [this](net::Frame &&f) { onResponse(std::move(f)); });
    }
}

std::size_t
ClientFarm::pendingCount() const
{
    std::size_t n = 0;
    for (std::uint64_t w : st_.live)
        n += static_cast<std::size_t>(std::popcount(w));
    return n;
}

void
ClientFarm::start()
{
    if (st_.running)
        return;
    st_.running = true;
    ++st_.generation;
    arrivalTick();
}

void
ClientFarm::stop()
{
    st_.running = false;
    ++st_.generation;
}

void
ClientFarm::arrivalTick()
{
    if (!st_.running)
        return;
    issueRequest();
    double rate = cfg_.requestRate;
    if (shaped_)
        rate *= rateMultiplierAt(profile_, sim_.now());
    if (rate <= 0.0)
        rate = 1.0; // idle trough: crawl until the curve comes back
    sim::Tick mean = static_cast<sim::Tick>(1e6 / rate);
    std::uint64_t gen = st_.generation;
    sim_.scheduleIn(genRng().exponential(mean), [this, gen] {
        if (gen == st_.generation)
            arrivalTick();
    });
}

void
ClientFarm::issueRequest()
{
    sim::RequestId id = st_.nextReq++;
    sim::FileId file =
        static_cast<sim::FileId>(zipf_.sample(genRng()));

    // Round-robin DNS: clients keep hitting a node's address whether
    // or not the node is up.
    net::PortId server = serverPorts_[st_.rrServer];
    st_.rrServer = (st_.rrServer + 1) % serverPorts_.size();
    net::PortId client = clientPorts_[st_.rrClient];
    st_.rrClient = (st_.rrClient + 1) % clientPorts_.size();

    if (id - st_.base == st_.live.size() * 64)
        growLiveRing();
    liveWord(id) |= liveBit(id);
    st_.tally.offer(sim_.now());

    auto body = sim_.makePayload<press::ClientRequestBody>();
    body->req = id;
    body->file = file;
    body->replyPort = client;
    body->sentAt = sim_.now();

    net::Frame f;
    f.srcPort = client;
    f.dstPort = server;
    f.proto = net::Proto::Client;
    f.kind = press::ClientRequest;
    f.bytes = cfg_.requestBytes;
    f.payload = std::move(body);
    net_.send(std::move(f));

    // A single expiry at the completion deadline covers both the
    // connect (2 s) and the request (6 s) timeout: an unanswered
    // request is failed either way. It is never cancelled; a response
    // clears the live flag instead.
    sim_.events().scheduleLane(expiryLane_, id);
}

std::uint64_t &
ClientFarm::liveWord(sim::RequestId id)
{
    return st_.live[(id >> 6) & (st_.live.size() - 1)];
}

void
ClientFarm::growLiveRing()
{
    std::vector<std::uint64_t> old(st_.live.size() * 2);
    old.swap(st_.live);
    for (sim::RequestId id = st_.base; id < st_.nextReq; ++id)
        if (old[(id >> 6) & (old.size() - 1)] & liveBit(id))
            liveWord(id) |= liveBit(id);
}

void
ClientFarm::onResponse(net::Frame &&f)
{
    if (f.kind != press::ClientResponse || !f.payload)
        return;
    auto *body = f.payload.get<press::ClientResponseBody>();
    sim::RequestId id = body->req;
    if (id < st_.base || id >= st_.nextReq ||
        !(liveWord(id) & liveBit(id)))
        return; // already expired: the client hung up long ago
    liveWord(id) &= ~liveBit(id);
    recordResponseLatency(st_.tally.timeline, sim_.now(), *body);
    st_.tally.serve(sim_.now());
}

void
ClientFarm::registerWith(sim::SnapshotRegistry &reg)
{
    reg.attach(*this);
}

void
ClientFarm::expire(sim::RequestId id)
{
    // One lane with one delay fires expiries in issue order, so @p id
    // is always the oldest request in the window.
    if (id != st_.base)
        PANIC("request ", id, " expired out of order (base ", st_.base,
              ")");
    st_.base = id + 1;
    if (!(liveWord(id) & liveBit(id)))
        return; // completed in time
    liveWord(id) &= ~liveBit(id);
    st_.tally.fail(sim_.now());
}

} // namespace performa::loadgen
