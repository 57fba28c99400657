/**
 * @file
 * One cluster node: CPU, kernel memory, pinnable-page budget, network
 * attachment, power/freeze lifecycle, and the Mendosus-style monitor
 * daemon that supervises the server process.
 */

#ifndef PERFORMA_OS_NODE_HH
#define PERFORMA_OS_NODE_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/network.hh"
#include "os/cpu.hh"
#include "os/memory.hh"
#include "os/service.hh"
#include "sim/simulation.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace performa::osim {

/** Sizing and timing knobs for a node. */
struct NodeConfig
{
    /** Kernel memory pool backing skbuf allocations. */
    std::uint64_t kernelMemBytes = 64ull << 20;
    /** Pinnable-page budget (most of the 206 MB of physical memory). */
    std::uint64_t pinLimitBytes = 180ull << 20;
    /** Delay from node power-up to the daemon launching the service. */
    sim::Tick serviceStartDelay = sim::sec(5);
    /** Daemon delay before restarting a dead service process. */
    sim::Tick serviceRestartDelay = sim::sec(10);
};

/**
 * A cluster node. The node owns the hardware/OS state; the protocol
 * stacks and the PRESS server attach to it.
 */
class Node
{
  public:
    enum class Status
    {
        Up,
        Down,   ///< crashed; nothing runs, ports are dark
        Frozen, ///< OS hung; NIC hardware alive, nothing executes
    };

    Node(sim::Simulation &s, sim::NodeId id, net::Network &intra_net,
         net::PortId intra_port, net::Network &client_net,
         net::PortId client_port, NodeConfig cfg = {});

    sim::NodeId id() const { return id_; }
    Status status() const { return st_.status; }
    bool up() const { return st_.status == Status::Up; }
    bool frozen() const { return st_.status == Status::Frozen; }

    /**
     * Reboot count; a rebooted node is a different "incarnation", which
     * is how TCP peers eventually get RSTs for stale connections.
     */
    std::uint64_t incarnation() const { return st_.incarnation; }

    Cpu &cpu() { return cpu_; }
    KernelMemory &kernelMem() { return kernelMem_; }
    PinManager &pins() { return pins_; }

    net::Network &intraNet() { return intraNet_; }
    net::PortId intraPort() const { return intraPort_; }
    net::Network &clientNet() { return clientNet_; }
    net::PortId clientPort() const { return clientPort_; }

    sim::Simulation &simulation() { return sim_; }
    const NodeConfig &config() const { return cfg_; }

    /// @name Power and freeze lifecycle (driven by the fault injector)
    /// @{

    /** Hard-reboot fault: power off now, back up after @p downtime. */
    void crash(sim::Tick downtime);

    /** Node-freeze fault: the OS hangs for @p duration. */
    void freeze(sim::Tick duration);

    /** @} */

    /// @name Monitor daemon
    /// @{

    /** Register the supervised service (started on the next boot). */
    void attachService(Service *svc);

    /** Launch the service immediately (initial cluster bring-up). */
    void startServiceNow();

    /** SIGKILL the service; the daemon restarts it (app crash fault). */
    void killService();

    /** SIGSTOP / SIGCONT the service (app hang fault). */
    void stopService();
    void contService();

    /**
     * Called by the service itself when it exits voluntarily.
     * FailFast exits are restarted by the daemon; GaveUp exits wait
     * for the operator.
     */
    void serviceSelfExited(ExitReason reason);

    /** Operator intervention: restart the service with a clean state. */
    void operatorRestartService();

    /** @} */

    /// @name Lifecycle notifications (for protocol stacks)
    /// @{
    void onCrash(sim::SmallFn<void()> f) { crashFns_.push_back(std::move(f)); }
    /** @} */

  private:
    friend class sim::SnapshotRegistry;

    void setPorts(bool up);
    void reboot();

    sim::Simulation &sim_;
    sim::NodeId id_;
    net::Network &intraNet_;
    net::PortId intraPort_;
    net::Network &clientNet_;
    net::PortId clientPort_;
    NodeConfig cfg_;

    Cpu cpu_;
    KernelMemory kernelMem_;
    PinManager pins_;

    Service *service_ = nullptr;

    std::vector<sim::SmallFn<void()>> crashFns_;

    /**
     * Snapshot state: the lifecycle. The owned CPU and memory managers
     * carry their own State (attach them with the node); the attached
     * service and the lifecycle callbacks are wiring.
     */
    struct State
    {
        Status status = Status::Up;
        std::uint64_t incarnation = 1;
        bool restartPending = false;
    };

    State st_;
};

} // namespace performa::osim

#endif // PERFORMA_OS_NODE_HH
