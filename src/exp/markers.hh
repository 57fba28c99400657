/**
 * @file
 * Time markers collected during a phase-1 experiment. They mechanize
 * the instrumentation the paper's evaluators read off their server
 * logs and throughput graphs: when the fault went in, when the
 * service detected it (first exclusion or fail-fast), when the
 * component recovered, when nodes rejoined, and whether the operator
 * had to step in.
 */

#ifndef PERFORMA_EXP_MARKERS_HH
#define PERFORMA_EXP_MARKERS_HH

#include <optional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace performa::sim {
class SnapshotRegistry;
}

namespace performa::exp {

/** What a marker records. */
enum class MarkerKind
{
    Inject,        ///< fault applied
    Recover,       ///< faulty component repaired / restored
    Exclude,       ///< a server excluded a node from its member set
    MemberUp,      ///< a server added a node to its member set
    FailFast,      ///< a server terminated on a fatal comm error
    GiveUp,        ///< a restarted server gave up rejoining
    Started,       ///< a server process (re)started
    OperatorReset, ///< operator restarted the cluster
};

const char *markerName(MarkerKind k);

struct Marker
{
    sim::Tick t = 0;
    MarkerKind kind = MarkerKind::Inject;
    sim::NodeId node = sim::invalidNode;  ///< observing node
    sim::NodeId other = sim::invalidNode; ///< subject node, if any
    std::string detail;
};

/** Append-only marker log with simple queries. */
class MarkerLog
{
  public:
    void
    add(sim::Tick t, MarkerKind kind,
        sim::NodeId node = sim::invalidNode,
        sim::NodeId other = sim::invalidNode, std::string detail = {})
    {
        st_.markers.push_back(Marker{t, kind, node, other,
                                     std::move(detail)});
    }

    const std::vector<Marker> &all() const { return st_.markers; }

    /** First marker of @p kind at or after @p from. */
    std::optional<Marker>
    firstAfter(MarkerKind kind, sim::Tick from) const
    {
        for (const auto &m : st_.markers) {
            if (m.kind == kind && m.t >= from)
                return m;
        }
        return std::nullopt;
    }

    /** Last marker of @p kind, if any. */
    std::optional<Marker>
    last(MarkerKind kind) const
    {
        const auto &ms = st_.markers;
        for (auto it = ms.rbegin(); it != ms.rend(); ++it) {
            if (it->kind == kind)
                return *it;
        }
        return std::nullopt;
    }

    /** Count of markers of @p kind in [from, to). */
    std::size_t
    count(MarkerKind kind, sim::Tick from = 0,
          sim::Tick to = sim::maxTick) const
    {
        std::size_t n = 0;
        for (const auto &m : st_.markers) {
            if (m.kind == kind && m.t >= from && m.t < to)
                ++n;
        }
        return n;
    }

  private:
    friend class sim::SnapshotRegistry;

    /** Snapshot state: the log itself. */
    struct State
    {
        std::vector<Marker> markers;
    };

    State st_;
};

} // namespace performa::exp

#endif // PERFORMA_EXP_MARKERS_HH
