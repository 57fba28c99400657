#include "proto/interpose.hh"

#include <utility>

namespace performa::proto {

void
FaultInterposer::setCallbacks(CommCallbacks cbs)
{
    userCbs_ = std::move(cbs);

    CommCallbacks wrapped = userCbs_;
    wrapped.onMessage = [this](sim::NodeId peer, AppMessage &&msg) {
        if (st_.armedRecv) {
            // The receive call ran with a corrupted buffer descriptor:
            // the library reports a fatal error instead of data (EFAULT
            // for sockets, an error-status completion for VIPL).
            st_.armedRecv.reset();
            userCbs_.onFatalError(
                "receive call failed: corrupted buffer parameters");
            return;
        }
        userCbs_.onMessage(peer, std::move(msg));
    };
    inner_->setCallbacks(std::move(wrapped));
}

SendStatus
FaultInterposer::send(sim::NodeId peer, AppMessage msg,
                      const SendParams &params)
{
    SendParams p = params;
    if (st_.armedSend) {
        switch (*st_.armedSend) {
          case Corruption::NullPointer:
            p.nullPointer = true;
            break;
          case Corruption::OffByNPtr:
            p.ptrOffset = st_.armedN;
            break;
          case Corruption::OffByNSize:
            p.sizeDelta = st_.armedN;
            break;
        }
        st_.armedSend.reset();
    }
    return inner_->send(peer, std::move(msg), p);
}

} // namespace performa::proto
