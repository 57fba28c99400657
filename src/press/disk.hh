/**
 * @file
 * Per-node disk subsystem: a small array of independent disks with
 * seek-plus-transfer service times. PRESS's disk helper threads mean
 * reads do not block the main thread; completion is delivered as a
 * callback.
 */

#ifndef PERFORMA_PRESS_DISK_HH
#define PERFORMA_PRESS_DISK_HH

#include <cstdint>
#include <vector>

#include "sim/simulation.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace performa::press {

/**
 * N independent disks with FIFO queues; a read is dispatched to the
 * disk that frees up first.
 */
class DiskArray
{
  public:
    DiskArray(sim::Simulation &s, std::uint32_t disks, sim::Tick seek,
              double bytes_per_usec)
        : sim_(s), seek_(seek), bytesPerUsec_(bytes_per_usec),
          st_{std::vector<sim::Tick>(disks, 0)}
    {}

    /**
     * Read @p bytes; @p done fires when the transfer completes.
     * Returns the completion time.
     */
    sim::Tick
    read(std::uint64_t bytes, sim::SmallFn<void()> done)
    {
        // Pick the disk with the earliest availability.
        std::size_t best = 0;
        for (std::size_t i = 1; i < st_.freeAt.size(); ++i) {
            if (st_.freeAt[i] < st_.freeAt[best])
                best = i;
        }
        sim::Tick start = std::max(sim_.now(), st_.freeAt[best]);
        sim::Tick service = seek_ +
            static_cast<sim::Tick>(static_cast<double>(bytes) /
                                   bytesPerUsec_);
        sim::Tick finish = start + service;
        st_.freeAt[best] = finish;
        ++st_.reads;
        sim_.schedule(finish, std::move(done));
        return finish;
    }

    std::uint64_t reads() const { return st_.reads; }

    /** Mean queue depth proxy: how far ahead of now the disks are booked. */
    sim::Tick
    backlog() const
    {
        sim::Tick now = sim_.now();
        sim::Tick total = 0;
        for (auto f : st_.freeAt)
            total += f > now ? f - now : 0;
        return total;
    }

  private:
    friend class sim::SnapshotRegistry;

    sim::Simulation &sim_;
    sim::Tick seek_;
    double bytesPerUsec_;

    /** Snapshot state: per-disk booking horizon and the read count. */
    struct State
    {
        std::vector<sim::Tick> freeAt;
        std::uint64_t reads = 0;
    };

    State st_;
};

} // namespace performa::press

#endif // PERFORMA_PRESS_DISK_HH
