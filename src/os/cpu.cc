#include "os/cpu.hh"

#include <utility>

namespace performa::osim {

void
Cpu::exec(sim::Tick cost, sim::SmallFn<void()> done)
{
    st_.queue.push_back(Item{cost, std::move(done)});
    maybeStart();
}

void
Cpu::pause()
{
    ++st_.pauseCount;
}

void
Cpu::resume()
{
    if (st_.pauseCount > 0)
        --st_.pauseCount;
    maybeStart();
}

void
Cpu::clear()
{
    st_.queue.clear();
    ++st_.generation; // orphan any in-flight completion
    st_.inflight.done.reset();
    st_.running = false;
}

void
Cpu::maybeStart()
{
    if (st_.running || st_.pauseCount > 0 || st_.queue.empty())
        return;
    st_.running = true;
    st_.inflight = std::move(st_.queue.front());
    st_.queue.pop_front();
    std::uint64_t gen = st_.generation;
    // The item itself parks in st_.inflight, so the completion event
    // captures only {this, gen} and always stays in SmallFn's inline
    // buffer.
    sim_.scheduleIn(st_.inflight.cost, [this, gen] {
        if (gen != st_.generation)
            return; // cleared (node crashed) while in flight
        st_.busyTime += st_.inflight.cost;
        st_.running = false;
        // Move out before invoking: the completion may call exec(),
        // which starts the next item and overwrites st_.inflight.
        sim::SmallFn<void()> done = std::move(st_.inflight.done);
        done();
        maybeStart();
    });
}

} // namespace performa::osim
