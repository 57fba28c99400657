#include "os/node.hh"

#include "sim/logging.hh"

namespace performa::osim {

Node::Node(sim::Simulation &s, sim::NodeId id, net::Network &intra_net,
           net::PortId intra_port, net::Network &client_net,
           net::PortId client_port, NodeConfig cfg)
    : sim_(s), id_(id), intraNet_(intra_net), intraPort_(intra_port),
      clientNet_(client_net), clientPort_(client_port), cfg_(cfg),
      cpu_(s), kernelMem_(cfg.kernelMemBytes), pins_(cfg.pinLimitBytes)
{
}

void
Node::setPorts(bool up)
{
    intraNet_.setPortUp(intraPort_, up);
    clientNet_.setPortUp(clientPort_, up);
}

void
Node::crash(sim::Tick downtime)
{
    if (st_.status == Status::Down)
        return;
    if (st_.status == Status::Frozen) {
        // Crashing while frozen: the pending unfreeze event will see
        // the node rebooted and do nothing, so undo the freeze's CPU
        // pause here or it would leak past the reboot.
        cpu_.resume();
    }
    st_.status = Status::Down;
    setPorts(false);
    cpu_.clear();
    cpu_.pause(); // nothing executes while down
    kernelMem_.reset();
    pins_.reset();
    if (service_ && service_->alive())
        service_->terminate(/*silent=*/true);
    for (auto &fn : crashFns_)
        fn();
    sim_.scheduleIn(downtime, [this] { reboot(); });
}

void
Node::reboot()
{
    ++st_.incarnation;
    st_.status = Status::Up;
    setPorts(true);
    cpu_.resume();
    // Mendosus starts another PRESS process automatically after boot.
    if (service_) {
        sim_.scheduleIn(cfg_.serviceStartDelay, [this] {
            if (st_.status == Status::Up && service_ && !service_->alive())
                service_->start();
        });
    }
}

void
Node::freeze(sim::Tick duration)
{
    if (st_.status != Status::Up)
        return;
    st_.status = Status::Frozen;
    cpu_.pause();
    sim_.scheduleIn(duration, [this] {
        if (st_.status != Status::Frozen)
            return; // crashed while frozen
        st_.status = Status::Up;
        cpu_.resume();
    });
}

void
Node::attachService(Service *svc)
{
    service_ = svc;
}

void
Node::startServiceNow()
{
    if (!service_)
        PANIC("node ", id_, " has no attached service");
    if (!service_->alive())
        service_->start();
}

void
Node::killService()
{
    if (!service_ || !service_->alive() || st_.status == Status::Down)
        return;
    service_->terminate(/*silent=*/false);
    // The daemon notices the death and restarts the process.
    if (!st_.restartPending) {
        st_.restartPending = true;
        sim_.scheduleIn(cfg_.serviceRestartDelay, [this] {
            st_.restartPending = false;
            if (st_.status == Status::Up && service_ && !service_->alive())
                service_->start();
        });
    }
}

void
Node::stopService()
{
    if (service_ && service_->alive() && st_.status != Status::Down)
        service_->sigStop();
}

void
Node::contService()
{
    if (service_ && service_->alive() && st_.status != Status::Down)
        service_->sigCont();
}

void
Node::serviceSelfExited(ExitReason reason)
{
    // The daemon restarts a fail-fast exit; a GaveUp service waits
    // for the operator (that wait is its availability cost).
    if (reason == ExitReason::FailFast && !st_.restartPending) {
        st_.restartPending = true;
        sim_.scheduleIn(cfg_.serviceRestartDelay, [this] {
            st_.restartPending = false;
            if (st_.status == Status::Up && service_ && !service_->alive())
                service_->start();
        });
    }
}

void
Node::operatorRestartService()
{
    if (st_.status != Status::Up || !service_)
        return;
    if (service_->alive())
        service_->terminate(/*silent=*/false);
    service_->start();
}

} // namespace performa::osim
