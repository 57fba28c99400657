#include "loadgen/generator.hh"

#include "loadgen/client_farm.hh"
#include "loadgen/load_profile.hh"
#include "loadgen/session_farm.hh"
#include "press/messages.hh"

namespace performa::loadgen {

Tally::Tally(std::size_t reserve_slices)
    : timeline({.hist = {},
                .sliceWidth = sim::sec(1),
                .reserveSlices = reserve_slices})
{
    served.reserve(reserve_slices);
    failed.reserve(reserve_slices);
    offered.reserve(reserve_slices);
}

std::unique_ptr<LoadGenerator>
makeLoadGenerator(sim::Simulation &sim, net::Network &client_net,
                  std::vector<net::PortId> server_ports,
                  std::vector<net::PortId> client_ports,
                  const WorkloadConfig &cfg,
                  const LoadProfileSpec &profile)
{
    if (profile.sessions)
        return std::make_unique<SessionFarm>(
            sim, client_net, std::move(server_ports),
            std::move(client_ports), cfg, profile);
    return std::make_unique<ClientFarm>(
        sim, client_net, std::move(server_ports),
        std::move(client_ports), cfg, profile);
}

void
recordResponseLatency(sim::StageLatencyTimeline &tl, sim::Tick now,
                      const press::ClientResponseBody &body,
                      bool record_connect)
{
    // A request legitimately sent at tick 0 still has a server-side
    // stamp; only a body with no stamps at all is "unstamped".
    if ((body.sentAt == 0 && body.acceptedAt == 0 &&
         body.serviceStartAt == 0) ||
        body.sentAt > now)
        return; // unstamped response (raw test harness): nothing to say
    tl.record(sim::LatencyStage::Total, now, now - body.sentAt);
    if (body.acceptedAt >= body.sentAt && record_connect)
        tl.record(sim::LatencyStage::Connect, now,
                  body.acceptedAt - body.sentAt);
    if (body.serviceStartAt >= body.acceptedAt && body.acceptedAt > 0)
        tl.record(sim::LatencyStage::Queue, now,
                  body.serviceStartAt - body.acceptedAt);
    if (body.serviceStartAt > 0 && now >= body.serviceStartAt)
        tl.record(sim::LatencyStage::Service, now,
                  now - body.serviceStartAt);
}

} // namespace performa::loadgen
