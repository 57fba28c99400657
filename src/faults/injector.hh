/**
 * @file
 * The Mendosus-style fault injector: applies FaultSpecs to a live
 * simulated cluster in real (simulated) time, through the same entry
 * points the real testbed used — network component state, node
 * power/freeze, the kernel allocator trap, the cLAN driver's pin
 * threshold, daemon-delivered signals, and the library interposition
 * layer for bad parameters.
 */

#ifndef PERFORMA_FAULTS_INJECTOR_HH
#define PERFORMA_FAULTS_INJECTOR_HH

#include <string>

#include "faults/fault.hh"
#include "press/cluster.hh"
#include "sim/simulation.hh"
#include "sim/small_fn.hh"

namespace performa::fault {

/**
 * Injects faults into a Cluster. Emits inject/recover notifications
 * so experiments can place time markers.
 */
class Injector
{
  public:
    /** (time, what-happened, affected node or invalidNode). */
    using EventFn =
        sim::SmallFn<void(sim::Tick, const std::string &, sim::NodeId)>;

    Injector(sim::Simulation &s, press::Cluster &cluster)
        : sim_(s), cluster_(cluster)
    {}

    /** Observe injections and recoveries. */
    void setEventFn(EventFn fn) { onEvent_ = std::move(fn); }

    /**
     * Schedule @p spec: the fault is applied at spec.injectAt and, for
     * transient faults, removed after spec.duration.
     */
    void schedule(const FaultSpec &spec);

    /** Apply @p spec right now (tests). */
    void injectNow(const FaultSpec &spec);

  private:
    void recover(const FaultSpec &spec);
    /** Report "<phase><fault name>" for @p spec to the event fn. */
    void emit(const char *phase, const FaultSpec &spec);

    sim::Simulation &sim_;
    press::Cluster &cluster_;
    EventFn onEvent_ = [](sim::Tick, const std::string &, sim::NodeId) {};
};

} // namespace performa::fault

#endif // PERFORMA_FAULTS_INJECTOR_HH
