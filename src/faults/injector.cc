#include "faults/injector.hh"

#include "sim/logging.hh"

namespace performa::fault {

const char *
faultName(FaultKind k)
{
    switch (k) {
      case FaultKind::LinkDown:
        return "link-down";
      case FaultKind::SwitchDown:
        return "switch-down";
      case FaultKind::NodeCrash:
        return "node-crash";
      case FaultKind::NodeFreeze:
        return "node-freeze";
      case FaultKind::KernelMemAlloc:
        return "kernel-mem-alloc";
      case FaultKind::PinExhaustion:
        return "pin-exhaustion";
      case FaultKind::AppCrash:
        return "app-crash";
      case FaultKind::AppHang:
        return "app-hang";
      case FaultKind::BadParamNull:
        return "bad-param-null";
      case FaultKind::BadParamOffPtr:
        return "bad-param-off-ptr";
      case FaultKind::BadParamOffSize:
        return "bad-param-off-size";
      case FaultKind::PacketDrop:
        return "packet-drop";
    }
    return "?";
}

bool
hasDuration(FaultKind k)
{
    switch (k) {
      case FaultKind::LinkDown:
      case FaultKind::SwitchDown:
      case FaultKind::NodeCrash: // downtime until reboot
      case FaultKind::NodeFreeze:
      case FaultKind::KernelMemAlloc:
      case FaultKind::PinExhaustion:
      case FaultKind::AppHang:
        return true;
      case FaultKind::AppCrash:
      case FaultKind::BadParamNull:
      case FaultKind::BadParamOffPtr:
      case FaultKind::BadParamOffSize:
      case FaultKind::PacketDrop:
        return false;
    }
    return false;
}

void
Injector::emit(const std::string &what, sim::NodeId node)
{
    onEvent_(sim_.now(), what, node);
}

void
Injector::schedule(const FaultSpec &spec)
{
    sim_.schedule(spec.injectAt, [this, spec] { injectNow(spec); });
}

void
Injector::injectNow(const FaultSpec &spec)
{
    switch (spec.kind) {
      case FaultKind::LinkDown:
        cluster_.intraNet().setLinkUp(spec.target, false);
        emit("inject link-down", spec.target);
        sim_.scheduleIn(spec.duration, [this, spec] { recover(spec); });
        break;

      case FaultKind::SwitchDown:
        cluster_.intraNet().setSwitchUp(false);
        emit("inject switch-down", sim::invalidNode);
        sim_.scheduleIn(spec.duration, [this, spec] { recover(spec); });
        break;

      case FaultKind::NodeCrash:
        // Node::crash schedules its own reboot; recovery marker fires
        // when the downtime elapses.
        cluster_.node(spec.target).crash(spec.duration);
        emit("inject node-crash", spec.target);
        sim_.scheduleIn(spec.duration, [this, spec] { recover(spec); });
        break;

      case FaultKind::NodeFreeze:
        cluster_.node(spec.target).freeze(spec.duration);
        emit("inject node-freeze", spec.target);
        sim_.scheduleIn(spec.duration, [this, spec] { recover(spec); });
        break;

      case FaultKind::KernelMemAlloc:
        cluster_.node(spec.target).kernelMem().setFailInjected(true);
        emit("inject kernel-mem-alloc", spec.target);
        sim_.scheduleIn(spec.duration, [this, spec] { recover(spec); });
        break;

      case FaultKind::PinExhaustion:
        cluster_.node(spec.target).pins().setInjectedLimit(
            spec.pinLimitBytes);
        emit("inject pin-exhaustion", spec.target);
        sim_.scheduleIn(spec.duration, [this, spec] { recover(spec); });
        break;

      case FaultKind::AppCrash:
        cluster_.node(spec.target).killService();
        emit("inject app-crash", spec.target);
        break;

      case FaultKind::AppHang:
        cluster_.node(spec.target).stopService();
        emit("inject app-hang", spec.target);
        sim_.scheduleIn(spec.duration, [this, spec] { recover(spec); });
        break;

      case FaultKind::BadParamNull:
        cluster_.server(spec.target).interposer().armSend(
            proto::Corruption::NullPointer, spec.offByN);
        emit("inject bad-param-null", spec.target);
        break;

      case FaultKind::BadParamOffPtr:
        cluster_.server(spec.target).interposer().armSend(
            proto::Corruption::OffByNPtr, spec.offByN);
        emit("inject bad-param-off-ptr", spec.target);
        break;

      case FaultKind::BadParamOffSize:
        cluster_.server(spec.target).interposer().armSend(
            proto::Corruption::OffByNSize, spec.offByN);
        emit("inject bad-param-off-size", spec.target);
        break;

      case FaultKind::PacketDrop:
        // "We model transient packet loss as application process
        // crashes" on VIA (the loss is reported as a fatal error);
        // TCP retransmission absorbs it.
        if (press::isVia(cluster_.config().press.version))
            cluster_.node(spec.target).killService();
        emit("inject packet-drop", spec.target);
        break;
    }
}

void
Injector::recover(const FaultSpec &spec)
{
    switch (spec.kind) {
      case FaultKind::LinkDown:
        cluster_.intraNet().setLinkUp(spec.target, true);
        break;
      case FaultKind::SwitchDown:
        cluster_.intraNet().setSwitchUp(true);
        break;
      case FaultKind::NodeCrash:
        break; // Node rebooted on its own schedule
      case FaultKind::NodeFreeze:
        break; // Node unfroze on its own schedule
      case FaultKind::KernelMemAlloc:
        cluster_.node(spec.target).kernelMem().setFailInjected(false);
        break;
      case FaultKind::PinExhaustion:
        cluster_.node(spec.target).pins().setInjectedLimit(
            ~std::uint64_t(0));
        break;
      case FaultKind::AppHang:
        cluster_.node(spec.target).contService();
        break;
      default:
        break;
    }
    emit(std::string("recover ") + faultName(spec.kind),
         spec.kind == FaultKind::SwitchDown ? sim::invalidNode
                                            : spec.target);
}

} // namespace performa::fault
