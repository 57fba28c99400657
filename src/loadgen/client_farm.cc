#include "loadgen/client_farm.hh"

#include <memory>

#include "press/messages.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace performa::loadgen {

ClientFarm::ClientFarm(sim::Simulation &s, net::Network &client_net,
                       std::vector<net::PortId> server_ports,
                       std::vector<net::PortId> client_ports,
                       WorkloadConfig cfg, LoadProfileSpec profile)
    : sim_(s), net_(client_net), serverPorts_(std::move(server_ports)),
      clientPorts_(std::move(client_ports)), cfg_(cfg),
      profile_(std::move(profile)), shaped_(!profile_.isDefault()),
      zipf_(cfg.numFiles, cfg.zipfAlpha),
      st_{.splitRng = s.splitRng(kLoadgenRngSalt),
          .pending = {},
          .tally = Tally(profile_.reserveSlices)}
{
    if (serverPorts_.empty() || clientPorts_.empty())
        FATAL("ClientFarm needs at least one server and client port");
    for (net::PortId p : clientPorts_) {
        net_.setHandler(p,
            [this](net::Frame &&f) { onResponse(std::move(f)); });
    }
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

    st_.pending.insert(id);
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
    // request is failed either way.
    sim_.scheduleIn(cfg_.requestTimeout, [this, id] { expire(id); });
}

void
ClientFarm::onResponse(net::Frame &&f)
{
    if (f.kind != press::ClientResponse || !f.payload)
        return;
    auto *body = f.payload.get<press::ClientResponseBody>();
    if (st_.pending.erase(body->req) == 0)
        return; // already expired: the client hung up long ago
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
    if (st_.pending.erase(id) == 0)
        return; // completed in time
    st_.tally.fail(sim_.now());
}

} // namespace performa::loadgen
