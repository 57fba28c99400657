/**
 * @file
 * performa_bench: the end-to-end benchmark program. It runs one
 * workload through the public API -- campaign::ensurePhase1,
 * exp::Experiment (warmUp/snapshot/forkFrom/injectAndMeasure),
 * exp::extractBehavior and model::evaluateScenario -- and prints
 *
 *   metric <name> <value> <unit>   one line per metric
 *   point <key>                    an output every pass must produce
 *   row <pass> <key> <text>        a simulated output to be checked
 *   failed <pass> <label> <why>    a grid point that threw
 *   info <text>                    sample counts and notes
 *
 * Host time is what is measured. Simulated outputs are deterministic,
 * so run.py checks every row against its reference and across passes.
 * Untraced (--trace 0) it prints the end-to-end metrics; traced
 * (--trace 1) it runs the workload once untraced, once traced, and
 * prints the per-layer metrics (METRICS.md says which end-to-end
 * metric each should move).
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/phase1.hh"
#include "campaign/runner.hh"
#include "core/scenarios.hh"
#include "exp/behavior_db.hh"
#include "exp/experiment.hh"
#include "exp/stages.hh"
#include "loadgen/load_profile.hh"

using namespace performa;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
simSeconds(sim::Tick t)
{
    return static_cast<double>(t) / static_cast<double>(sim::sec(1));
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
maxOf(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

void
metric(const std::string &name, double value, const char *unit)
{
    std::printf("metric %s %.17g %s\n", name.c_str(), value, unit);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---------------------------------------------------------------------
// Workloads

/** A phase-1 grid workload: versions x faults through ensurePhase1. */
struct Grid
{
    std::vector<press::Version> versions;
    std::vector<fault::FaultKind> faults;
    unsigned workers = 1;
    std::string profile = "steady";
    std::optional<model::LatencySlo> slo;
};

// world16_steady: one fault-free TCP-PRESS world with the geometry of
// `performa_campaign --nodes 16 --scale 4`, warmed once and measured
// over several fault-free forks of kWorldMeasure simulated seconds.
constexpr std::uint32_t kWorldNodes = 16;
constexpr double kWorldScale = 4.0;
constexpr int kWorldForks = 6;
constexpr sim::Tick kWorldMeasure = sim::sec(10);

/**
 * Set-up is repeated this often per run, half before and half after
 * the timed part (so a run's samples span the host's slower and faster
 * spells), and its median is reported.
 */
constexpr int kSetupReps = 16;

std::optional<Grid>
gridFor(const std::string &workload)
{
    using fault::FaultKind;
    using press::Version;
    if (workload == "grid_steady") {
        Grid g;
        g.versions.assign(std::begin(press::allVersions),
                          std::end(press::allVersions));
        g.faults = {FaultKind::AppCrash, FaultKind::BadParamOffSize};
        g.workers = 3;
        return g;
    }
    if (workload == "grid_flashcrowd_slo") {
        Grid g;
        g.versions = {Version::TcpPressHb, Version::ViaPress0};
        g.faults = {FaultKind::AppCrash, FaultKind::BadParamNull};
        g.workers = 1;
        g.profile = "flashcrowd";
        model::LatencySlo slo;
        slo.quantile = 0.99;
        slo.thresholdUs = 500000;
        g.slo = slo;
        return g;
    }
    return std::nullopt;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 30;
    bool trace = false;
    std::string workDir = ".";
    std::string baseDb;
    std::vector<press::Version> versions; ///< grid override
    std::vector<fault::FaultKind> faults; ///< grid override
};

/** The end-to-end metrics of an untraced run, medians over rounds. */
void
printEndToEnd(const std::vector<double> &setup,
              const std::vector<double> &walls,
              const std::vector<double> &points, double simSecondsPerRound)
{
    double wall = median(walls);
    std::printf("info rounds=%zu point_samples=%zu point_s_max=%.17g s\n",
                walls.size(), points.size(), maxOf(points));
    metric("setup_s", median(setup), "s");
    metric("wall_s", wall, "s");
    metric("simsec_per_host_s", simSecondsPerRound / wall, "simsec/s");
    metric("point_s_p50", median(points), "s");
    metric("peak_rss_mb", peakRssMb(), "MB");
}

// ---------------------------------------------------------------------
// Counters read through public accessors

/** Simulated work, summed over servers and intra-cluster ports. */
struct Counters
{
    double events = 0, frames = 0, bytes = 0, drops = 0;
    double refused = 0, localHits = 0, forwarded = 0;
    double localMisses = 0, fwdMisses = 0, broadcasts = 0, stallS = 0;

    Counters &
    operator+=(const Counters &o)
    {
        events += o.events, frames += o.frames, bytes += o.bytes;
        drops += o.drops, refused += o.refused;
        localHits += o.localHits, forwarded += o.forwarded;
        localMisses += o.localMisses, fwdMisses += o.fwdMisses;
        broadcasts += o.broadcasts, stallS += o.stallS;
        return *this;
    }

    Counters
    operator-(const Counters &o) const
    {
        Counters d = *this;
        d.events -= o.events, d.frames -= o.frames, d.bytes -= o.bytes;
        d.drops -= o.drops, d.refused -= o.refused;
        d.localHits -= o.localHits;
        d.forwarded -= o.forwarded, d.localMisses -= o.localMisses;
        d.fwdMisses -= o.fwdMisses, d.broadcasts -= o.broadcasts;
        d.stallS -= o.stallS;
        return d;
    }
};

Counters
readCounters(exp::Experiment &e)
{
    Counters c;
    c.events = static_cast<double>(e.sim().events().executed());
    net::Network &intra = e.cluster().intraNet();
    for (std::size_t p = 0; p < intra.numPorts(); ++p) {
        const net::PortStats &st =
            intra.portStats(static_cast<net::PortId>(p));
        c.frames += static_cast<double>(st.framesSent);
        c.bytes += static_cast<double>(st.bytesSent);
        c.drops += static_cast<double>(st.drops());
    }
    for (std::uint32_t i = 0; i < e.cluster().numNodes(); ++i) {
        const press::ServerStats &s = e.cluster().server(i).stats();
        c.refused += static_cast<double>(s.refused);
        c.localHits += static_cast<double>(s.localHits);
        c.forwarded += static_cast<double>(s.forwarded);
        c.localMisses += static_cast<double>(s.localMisses);
        c.fwdMisses += static_cast<double>(s.fwdMisses);
        c.broadcasts += static_cast<double>(s.broadcastsSent);
        c.stallS += simSeconds(s.stalledTime);
    }
    return c;
}

constexpr exp::MarkerKind kMarkerKinds[] = {
    exp::MarkerKind::Inject,   exp::MarkerKind::Recover,
    exp::MarkerKind::Exclude,  exp::MarkerKind::MemberUp,
    exp::MarkerKind::FailFast, exp::MarkerKind::GiveUp,
    exp::MarkerKind::Started,  exp::MarkerKind::OperatorReset,
};

/**
 * Everything the traced pass accumulates. The simulated interval of
 * each combination counts once: its warm-up at the warm point, then
 * each fork from the fork point on.
 */
struct LayerTotals
{
    Counters sim;
    double offered = 0, served = 0, failed = 0;
    double heapEnd = 0, pendingEnd = 0, snapshotStates = 0;
    double poolHits = 0, poolFresh = 0;
    std::map<exp::MarkerKind, double> markers;
    sim::LatencyHistogram latency;

    /** Add one measured point's post-injection work (and, for the
     *  combination's first point, its warm-up) to the totals. */
    void
    addPoint(const exp::ExperimentResult &res, const Counters &work,
             bool includeWarm)
    {
        sim::Tick from = includeWarm ? 0 : res.injectAt;
        offered += static_cast<double>(res.offered.total(from, sim::maxTick));
        served += static_cast<double>(res.served.total(from, sim::maxTick));
        failed += static_cast<double>(res.failed.total(from, sim::maxTick));
        sim += work;
        for (exp::MarkerKind k : kMarkerKinds)
            markers[k] += static_cast<double>(res.markers.count(k, from));
        latency.merge(res.latency.window(sim::LatencyStage::Total, from,
                                         res.runLength));
    }

    void
    addEnd(exp::Experiment &e)
    {
        const sim::EventQueue &q = e.sim().events();
        heapEnd = std::max(heapEnd, static_cast<double>(q.heapSize()));
        pendingEnd =
            std::max(pendingEnd, static_cast<double>(q.pending()));
    }

    void
    addPool(exp::Experiment &e)
    {
        poolHits += static_cast<double>(e.sim().pool().poolHits());
        poolFresh += static_cast<double>(e.sim().pool().freshAllocs());
    }
};

// ---------------------------------------------------------------------
// Spans: kept in memory, written as JSON lines when the run ends

struct Span
{
    std::string name;
    std::string trace; ///< the grid point / job the span belongs to
    long id = 0;
    long parent = -1;
    double start = 0, end = 0; ///< seconds since the run's origin
};

class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    double
    now() const
    {
        return secondsSince(origin_);
    }

    /**
     * Append one job's spans. Parents are indices into @p local (the
     * job's root span is local[0] with parent -1) and become ids.
     */
    void
    append(std::vector<Span> local)
    {
        std::lock_guard<std::mutex> lock(mu_);
        long base = static_cast<long>(spans_.size());
        for (Span &s : local) {
            s.id += base;
            if (s.parent >= 0)
                s.parent += base;
            spans_.push_back(std::move(s));
        }
    }

    /** Sum of durations of spans called @p name. */
    double
    total(const std::string &name) const
    {
        double t = 0;
        for (const Span &s : spans_)
            if (s.name == name)
                t += s.end - s.start;
        return t;
    }

    /** Job-span time not covered by the job's child spans. */
    double
    selfTime() const
    {
        double t = total("exp.job");
        for (const Span &s : spans_)
            if (s.parent >= 0)
                t -= s.end - s.start;
        return t;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path, std::ios::trunc);
        for (const Span &s : spans_) {
            out << "{\"name\":\"" << s.name << "\",\"trace\":\""
                << s.trace << "\",\"id\":" << s.id
                << ",\"parent\":" << s.parent << ",\"start_s\":"
                << s.start << ",\"end_s\":" << s.end << "}\n";
        }
    }

  private:
    Clock::time_point origin_;
    std::mutex mu_;
    std::vector<Span> spans_;
};

/**
 * One job's spans under a root span; child() times a call. With a
 * null log (an untraced pass) child() just makes the call.
 */
class JobSpans
{
  public:
    JobSpans(SpanLog *log, std::string trace)
        : log_(log), trace_(std::move(trace))
    {
        if (log_)
            local_.push_back({"exp.job", trace_, 0, -1, log_->now(), 0});
    }

    ~JobSpans()
    {
        if (!log_)
            return;
        local_[0].end = log_->now();
        log_->append(std::move(local_));
    }

    JobSpans(const JobSpans &) = delete;
    JobSpans &operator=(const JobSpans &) = delete;

    template <class F>
    void
    child(const char *name, F &&fn)
    {
        if (!log_) {
            fn();
            return;
        }
        double start = log_->now();
        fn();
        local_.push_back({name, trace_,
                          static_cast<long>(local_.size()), 0, start,
                          log_->now()});
    }

  private:
    SpanLog *log_;
    std::string trace_;
    std::vector<Span> local_;
};

// ---------------------------------------------------------------------
// Grid workloads

campaign::Phase1Options
gridOptions(const Grid &g, std::uint64_t seed)
{
    campaign::Phase1Options opts;
    opts.workers = g.workers;
    opts.campaignSeed = seed;
    opts.versions = g.versions;
    opts.faults = g.faults;
    opts.slo = g.slo;
    opts.fresh = true;
    if (auto p = loadgen::profileByName(g.profile))
        opts.profile = *p;
    else
        throw std::runtime_error("unknown profile " + g.profile);
    return opts;
}

/** Data lines of a saved behaviour CSV (no fingerprint, no header). */
std::vector<std::string>
readRows(const std::string &path)
{
    std::vector<std::string> rows;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (!line.empty() && line[0] != '#' && line[0] != 'v')
            rows.push_back(line);
    return rows;
}

void
printRows(const std::string &pass, const std::string &csv)
{
    for (const std::string &r : readRows(csv)) {
        std::size_t second = r.find(',', r.find(',') + 1);
        std::printf("row %s %s %s\n", pass.c_str(),
                    r.substr(0, second).c_str(), r.c_str());
    }
}

/** The simulated seconds one grid pass advances. */
double
gridSimSeconds(const Grid &g, const campaign::Phase1Options &opts)
{
    double s = 0;
    for (press::Version v : g.versions) {
        s += simSeconds(campaign::phase1WarmConfig(v, g.faults, opts)
                            .injectAt);
        for (fault::FaultKind k : g.faults) {
            exp::ExperimentConfig c = campaign::phase1Config(v, k, opts);
            s += simSeconds(c.duration - c.injectAt);
        }
    }
    return s;
}

/** The campaign's set-up: build each combination's world once. */
double
gridSetup(const Grid &g, const campaign::Phase1Options &opts)
{
    Clock::time_point t0 = Clock::now();
    for (press::Version v : g.versions)
        exp::Experiment e(campaign::phase1WarmConfig(v, g.faults, opts));
    return secondsSince(t0);
}

/**
 * The phase-2 database: the committed grid (so every fault class of a
 * version's fault load has a behaviour) overlaid with this run's rows.
 */
exp::BehaviorDb
phase2Db(const std::string &base, const campaign::Phase1Options &opts,
         const std::string &measuredCsv)
{
    exp::BehaviorDb db;
    db.setFingerprint(campaign::phase1Fingerprint(opts));
    if (!db.load(base) || !db.load(measuredCsv))
        throw std::runtime_error("cannot load phase-2 behaviours from " +
                                 base + " and " + measuredCsv);
    return db;
}

model::ScenarioOptions
scenarioOptions(const campaign::Phase1Options &opts)
{
    model::ScenarioOptions s;
    s.numNodes = static_cast<int>(opts.numNodes);
    return s;
}

/** One ensurePhase1 campaign, its job reports and its rows. */
struct CampaignPass
{
    double wall = 0;
    std::vector<campaign::JobReport> jobs;
    std::vector<double> ends; ///< per job: seconds from campaign start
    std::size_t failed = 0;
};

CampaignPass
runGridCampaign(const Grid &g, campaign::Phase1Options opts,
                const std::string &csv, const std::string &base,
                const std::string &pass)
{
    CampaignPass cp;
    opts.progress = [&cp](const campaign::Progress &p) {
        cp.jobs.push_back(*p.last);
        cp.ends.push_back(p.elapsedSeconds);
    };
    exp::BehaviorDb db;
    Clock::time_point t0 = Clock::now();
    campaign::Phase1Result r = campaign::ensurePhase1(db, csv, opts);
    // Phase 2 over the measured versions, as a campaign user would.
    if (r.ok()) {
        exp::BehaviorDb p2 = phase2Db(base, opts, csv);
        for (press::Version v : g.versions) {
            model::PerfResult pr = model::evaluateScenario(
                v, p2.lookup(), scenarioOptions(opts));
            if (pass == "timed.1")
                std::printf("info phase2 %s P=%.6g P_slo=%.6g\n",
                            press::versionName(v), pr.performability,
                            pr.sloValid ? pr.sloPerformability : 0.0);
        }
    }
    cp.wall = secondsSince(t0);
    cp.failed = r.failed;
    for (const campaign::JobReport &f : r.failures)
        std::printf("failed %s %s %s\n", pass.c_str(), f.label.c_str(),
                    f.error.c_str());
    printRows(pass, csv);
    return cp;
}

/**
 * The traced pass: the campaign's own strand structure (one warm-up
 * job per version, then its fault jobs forked from the snapshot, on
 * the same worker count), driven through exp::Experiment with a span
 * around every call and counters read between calls.
 */
struct TracedPass
{
    double wall = 0;
    LayerTotals totals;
    std::vector<model::MeasuredBehavior> behaviors;
    std::vector<exp::BehaviorDb::Key> keys;
    std::vector<char> measured; ///< per slot: its job completed
};

TracedPass
runGridTraced(const Grid &g, const campaign::Phase1Options &opts,
              SpanLog &spans, const std::string &csv)
{
    struct Warm
    {
        std::unique_ptr<exp::Experiment> exp;
        sim::Snapshot snap;
        std::size_t remaining = 0;
        bool warmCounted = false;
    };
    std::deque<Warm> warm;
    TracedPass tp;
    std::mutex mu; // guards tp.totals
    std::vector<campaign::Job> jobs;

    for (press::Version v : g.versions)
        for (fault::FaultKind k : g.faults)
            tp.keys.push_back({v, k});
    tp.behaviors.resize(tp.keys.size());
    tp.measured.assign(tp.keys.size(), 0);

    std::size_t slot = 0;
    for (press::Version v : g.versions) {
        exp::ExperimentConfig wc =
            campaign::phase1WarmConfig(v, g.faults, opts);
        std::string strand = press::versionName(v);
        Warm &w = warm.emplace_back();
        w.remaining = g.faults.size();

        campaign::Job wj;
        wj.label = strand + " warm-up";
        wj.strand = strand;
        wj.work = [&w, &spans, &tp, &mu, wc](const campaign::Job &j) {
            JobSpans js(&spans, j.label);
            js.child("exp.construct", [&] {
                w.exp = std::make_unique<exp::Experiment>(wc);
            });
            js.child("exp.warmup", [&] { w.exp->warmUp(); });
            js.child("exp.snapshot", [&] { w.snap = w.exp->snapshot(); });
            std::lock_guard<std::mutex> lock(mu);
            tp.totals.snapshotStates =
                std::max(tp.totals.snapshotStates,
                         static_cast<double>(w.snap.size()));
        };
        jobs.push_back(std::move(wj));

        for (fault::FaultKind k : g.faults) {
            exp::ExperimentConfig cfg = campaign::phase1Config(v, k, opts);
            campaign::Job job;
            job.label = strand + " x " + fault::faultName(k);
            job.strand = strand;
            job.work = [&w, &spans, &tp, &mu, cfg, slot,
                        &opts](const campaign::Job &j) {
                if (!w.exp || w.snap.empty())
                    throw std::runtime_error("warm-up failed");
                JobSpans js(&spans, j.label);
                exp::ExperimentResult res;
                Counters atFork;
                js.child("exp.fork", [&] { w.exp->forkFrom(w.snap); });
                atFork = readCounters(*w.exp);
                js.child("exp.inject_measure", [&] {
                    res = w.exp->injectAndMeasure(cfg.fault, cfg.duration);
                });
                exp::ExtractionParams p;
                p.slo = opts.slo;
                js.child("exp.extract", [&] {
                    tp.behaviors[slot] =
                        exp::extractBehavior(res, *cfg.fault, p);
                });
                Counters after = readCounters(*w.exp);
                std::lock_guard<std::mutex> lock(mu);
                tp.measured[slot] = 1;
                bool first = !w.warmCounted;
                w.warmCounted = true;
                tp.totals.addPoint(res, first ? after : after - atFork, first);
                tp.totals.addEnd(*w.exp);
                if (--w.remaining == 0) {
                    tp.totals.addPool(*w.exp);
                    w.snap = sim::Snapshot{};
                    w.exp.reset();
                }
            };
            jobs.push_back(std::move(job));
            ++slot;
        }
    }

    campaign::RunnerConfig rc;
    rc.workers = g.workers;
    Clock::time_point t0 = Clock::now();
    campaign::CampaignReport report = campaign::runCampaign(jobs, rc);
    tp.wall = secondsSince(t0);
    for (const campaign::JobReport &r : report.jobs)
        if (!r.ok)
            std::printf("failed traced %s %s\n", r.label.c_str(),
                        r.error.c_str());

    exp::BehaviorDb db;
    db.setFingerprint(campaign::phase1Fingerprint(opts));
    for (std::size_t i = 0; i < tp.keys.size(); ++i)
        if (tp.measured[i])
            db.set(tp.keys[i].first, tp.keys[i].second, tp.behaviors[i]);
    db.save(csv);
    return tp;
}

void
printLayerMetrics(const LayerTotals &t, const SpanLog &spans,
                  double tracedWall)
{
    double warmup = spans.total("exp.warmup");
    double measure = spans.total("exp.inject_measure");
    metric("exp.construct_s", spans.total("exp.construct"), "s");
    metric("exp.warmup_s", warmup, "s");
    metric("exp.snapshot_s", spans.total("exp.snapshot"), "s");
    metric("exp.fork_s", spans.total("exp.fork"), "s");
    metric("exp.inject_measure_s", measure, "s");
    metric("exp.extract_s", spans.total("exp.extract"), "s");
    metric("exp.self_s", spans.selfTime(), "s");
    metric("exp.ns_per_event",
           1e9 * ratio(warmup + measure, t.sim.events), "ns");

    metric("sim.events", t.sim.events, "count");
    metric("sim.events_per_s", ratio(t.sim.events, tracedWall), "1/s");
    metric("sim.heap_end", t.heapEnd, "count");
    metric("sim.pending_end", t.pendingEnd, "count");
    metric("sim.snapshot_states", t.snapshotStates, "count");
    metric("sim.pool_hit_ratio",
           ratio(t.poolHits, t.poolHits + t.poolFresh), "ratio");

    metric("net.frames", t.sim.frames, "count");
    metric("net.bytes", t.sim.bytes, "B");
    metric("net.drops", t.sim.drops, "count");
    metric("net.frames_per_request", ratio(t.sim.frames, t.served),
           "ratio");

    double dispatched = t.sim.localHits + t.sim.forwarded +
                        t.sim.localMisses;
    metric("press.local_hit_rate", ratio(t.sim.localHits, dispatched),
           "ratio");
    metric("press.forward_rate", ratio(t.sim.forwarded, dispatched),
           "ratio");
    metric("press.disk_miss_rate",
           ratio(t.sim.localMisses + t.sim.fwdMisses, dispatched),
           "ratio");
    metric("press.broadcasts", t.sim.broadcasts, "count");
    metric("press.stall_s", t.sim.stallS, "s");
    metric("press.refused", t.sim.refused, "count");

    metric("loadgen.offered", t.offered, "count");
    metric("loadgen.served", t.served, "count");
    metric("loadgen.failed", t.failed, "count");
    metric("loadgen.served_per_s", ratio(t.served, tracedWall), "1/s");
    metric("loadgen.p99_ms",
           t.latency.count() ? t.latency.quantile(0.99) / 1000.0 : 0.0,
           "ms");

    for (exp::MarkerKind k : kMarkerKinds) {
        auto it = t.markers.find(k);
        metric(std::string("faults.markers.") + exp::markerName(k),
               it == t.markers.end() ? 0.0 : it->second, "count");
    }
}

/** Microseconds per evaluateScenario call (median of batches). */
double
evaluateUs(const exp::BehaviorDb &db,
           const std::vector<press::Version> &versions,
           const model::ScenarioOptions &sopts)
{
    constexpr int kBatches = 5, kCalls = 200;
    model::BehaviorLookup lookup = db.lookup();
    std::vector<double> us;
    double sink = 0;
    for (int b = 0; b < kBatches; ++b) {
        Clock::time_point t0 = Clock::now();
        for (int i = 0; i < kCalls; ++i)
            for (press::Version v : versions)
                sink += model::evaluateScenario(v, lookup, sopts)
                            .performability;
        us.push_back(1e6 * secondsSince(t0) /
                     (kCalls * static_cast<double>(versions.size())));
    }
    std::printf("info evaluate checksum %.6g\n", sink);
    return median(us);
}

int
runGrid(const Grid &g, const Args &a)
{
    campaign::Phase1Options opts = gridOptions(g, a.seed);
    std::string stem = a.workDir + "/" + a.workload + "-" +
                       std::to_string(a.seed);
    double simS = gridSimSeconds(g, opts);
    for (press::Version v : g.versions)
        for (fault::FaultKind k : g.faults)
            std::printf("point %d,%d\n", static_cast<int>(v),
                        static_cast<int>(k));
    std::printf("info grid %zu versions x %zu faults, %u workers, "
                "%.0f simulated s per pass\n",
                g.versions.size(), g.faults.size(), g.workers, simS);

    if (!a.trace) {
        std::vector<double> setup;
        for (int i = 0; i < kSetupReps / 2; ++i)
            setup.push_back(gridSetup(g, opts));

        // Repeat whole campaigns while another one fits in --seconds.
        std::vector<double> walls, points;
        Clock::time_point start = Clock::now();
        std::size_t failed = 0;
        do {
            std::string pass = "timed." + std::to_string(walls.size() + 1);
            CampaignPass cp =
                runGridCampaign(g, opts, stem + "." + pass + ".csv",
                                a.baseDb, pass);
            walls.push_back(cp.wall);
            failed += cp.failed;
            for (const campaign::JobReport &r : cp.jobs)
                if (r.tag != campaign::kWarmupJobTag && r.ok)
                    points.push_back(r.wallSeconds);
        } while (secondsSince(start) + median(walls) <= a.seconds);

        while (static_cast<int>(setup.size()) < kSetupReps)
            setup.push_back(gridSetup(g, opts));
        std::printf("info failed_points=%zu\n", failed);
        printEndToEnd(setup, walls, points, simS);
        return 0;
    }

    // Traced run: the untraced campaign first (the overhead baseline
    // and the campaign layer's job spans), then the traced pass.
    SpanLog spans(Clock::now());
    CampaignPass cp = runGridCampaign(g, opts, stem + ".untraced.csv",
                                      a.baseDb, "untraced");
    for (std::size_t j = 0; j < cp.jobs.size(); ++j)
        spans.append({{"campaign.job", cp.jobs[j].label, 0, -1,
                       cp.ends[j] - cp.jobs[j].wallSeconds, cp.ends[j]}});
    TracedPass tp =
        runGridTraced(g, opts, spans, stem + ".traced.csv");
    printRows("traced", stem + ".traced.csv");

    double busy = 0, warmJobs = 0;
    std::vector<double> points;
    for (const campaign::JobReport &r : cp.jobs) {
        busy += r.wallSeconds;
        if (r.tag == campaign::kWarmupJobTag)
            warmJobs += r.wallSeconds;
        else
            points.push_back(r.wallSeconds);
    }
    metric("campaign.busy_s", busy, "s");
    metric("campaign.utilization", ratio(busy, g.workers * cp.wall),
           "ratio");
    metric("campaign.imbalance_s", cp.wall - busy / g.workers, "s");
    metric("campaign.warmup_job_s", warmJobs, "s");
    metric("exp.point_s_max", maxOf(points), "s");
    printLayerMetrics(tp.totals, spans, tp.wall);

    double tnErr = 0;
    exp::BehaviorDb measured;
    measured.setFingerprint(campaign::phase1Fingerprint(opts));
    measured.load(stem + ".traced.csv");
    for (press::Version v : g.versions)
        if (measured.has(v, g.faults.front()))
            tnErr = std::max(
                tnErr, std::fabs(measured.get(v, g.faults.front())
                                         .normalTput /
                                     press::paperThroughput(v) -
                                 1.0));
    metric("tn_err_max", tnErr, "ratio");
    metric("core.evaluate_us",
           evaluateUs(phase2Db(a.baseDb, opts, stem + ".traced.csv"),
                      g.versions, scenarioOptions(opts)),
           "us");
    metric("trace.overhead_s", tp.wall - cp.wall, "s");
    spans.write(stem + ".trace.jsonl");
    return 0;
}

// ---------------------------------------------------------------------
// world16_steady

exp::ExperimentConfig
worldConfig(std::uint64_t seed)
{
    campaign::Phase1Options opts;
    opts.campaignSeed = seed;
    opts.numNodes = kWorldNodes;
    opts.loadScale = kWorldScale;
    return campaign::phase1WarmConfig(press::Version::TcpPress,
                                      {fault::FaultKind::AppCrash}, opts);
}

/** One world: warm up, snapshot, then kWorldForks fault-free forks. */
struct WorldRound
{
    double wall = 0;
    std::vector<double> points;
    LayerTotals totals;
    double tn = 0;
};

WorldRound
runWorldRound(exp::Experiment &e, const std::string &pass,
              SpanLog *spans)
{
    WorldRound wr;
    sim::Tick end = e.config().injectAt + kWorldMeasure;
    Clock::time_point t0 = Clock::now();
    sim::Snapshot snap;
    {
        JobSpans js(spans, "warm-up");
        js.child("exp.warmup", [&] { e.warmUp(); });
        js.child("exp.snapshot", [&] { snap = e.snapshot(); });
    }
    wr.totals.snapshotStates = static_cast<double>(snap.size());
    for (int i = 0; i < kWorldForks; ++i) {
        Clock::time_point tp = Clock::now();
        exp::ExperimentResult res;
        Counters atFork;
        {
            JobSpans js(spans, "fork " + std::to_string(i + 1));
            js.child("exp.fork", [&] { e.forkFrom(snap); });
            if (spans)
                atFork = readCounters(e);
            js.child("exp.inject_measure", [&] {
                res = e.injectAndMeasure(std::nullopt, end);
            });
        }
        wr.points.push_back(secondsSince(tp));
        Counters after = readCounters(e);
        if (spans) {
            wr.totals.addPoint(res, i == 0 ? after : after - atFork,
                               i == 0);
            wr.totals.addEnd(e);
        }
        wr.tn = res.normalThroughput;
        std::printf("row %s.%d digest tn=%.17g served=%llu events=%.17g "
                    "frames=%.17g\n",
                    pass.c_str(), i + 1, res.normalThroughput,
                    static_cast<unsigned long long>(
                        res.served.total(0, sim::maxTick)),
                    after.events, after.frames);
    }
    wr.wall = secondsSince(t0);
    if (spans)
        wr.totals.addPool(e);
    return wr;
}

int
runWorld(const Args &a)
{
    exp::ExperimentConfig cfg = worldConfig(a.seed);
    double simS = simSeconds(cfg.injectAt) +
                  kWorldForks * simSeconds(kWorldMeasure);
    std::printf("point digest\n");
    std::printf("info world %u nodes, load x%g, %.0f s warm-up + %d "
                "forks x %.0f s\n",
                kWorldNodes, kWorldScale, simSeconds(cfg.injectAt),
                kWorldForks, simSeconds(kWorldMeasure));

    // Set-up is world construction; each round needs a fresh world,
    // so every construction is a set-up sample.
    std::vector<double> setup;
    auto construct = [&] {
        Clock::time_point t0 = Clock::now();
        auto e = std::make_unique<exp::Experiment>(cfg);
        setup.push_back(secondsSince(t0));
        return e;
    };

    if (!a.trace) {
        while (static_cast<int>(setup.size()) < kSetupReps / 2 - 1)
            construct();
        std::vector<double> walls, points;
        Clock::time_point start = Clock::now();
        do {
            auto e = construct();
            WorldRound wr = runWorldRound(
                *e, "timed." + std::to_string(walls.size() + 1), nullptr);
            walls.push_back(wr.wall);
            points.insert(points.end(), wr.points.begin(),
                          wr.points.end());
        } while (secondsSince(start) + median(walls) <= a.seconds);

        while (static_cast<int>(setup.size()) < kSetupReps)
            construct();
        printEndToEnd(setup, walls, points, simS);
        return 0;
    }

    WorldRound untraced;
    {
        auto e = construct();
        untraced = runWorldRound(*e, "untraced", nullptr);
    }
    SpanLog spans(Clock::now());
    std::unique_ptr<exp::Experiment> e;
    {
        JobSpans js(&spans, "construct");
        js.child("exp.construct",
                 [&] { e = std::make_unique<exp::Experiment>(cfg); });
    }
    WorldRound wr = runWorldRound(*e, "traced", &spans);
    e.reset();

    metric("campaign.busy_s", 0.0, "s");
    metric("campaign.utilization", 0.0, "ratio");
    metric("campaign.imbalance_s", 0.0, "s");
    metric("campaign.warmup_job_s", 0.0, "s");
    metric("exp.point_s_max", maxOf(untraced.points), "s");
    printLayerMetrics(wr.totals, spans, wr.wall);
    // Accuracy of the 16-node world against linear scaling of the
    // paper's 4-node TCP-PRESS throughput.
    metric("tn_err_max",
           std::fabs(wr.tn / (press::paperThroughput(
                                  press::Version::TcpPress) *
                              kWorldScale) -
                     1.0),
           "ratio");
    exp::BehaviorDb base;
    campaign::Phase1Options steady;
    base.setFingerprint(campaign::phase1Fingerprint(steady));
    if (!base.load(a.baseDb))
        throw std::runtime_error("cannot load " + a.baseDb);
    model::ScenarioOptions sopts;
    sopts.numNodes = static_cast<int>(kWorldNodes);
    metric("core.evaluate_us",
           evaluateUs(base, {press::Version::TcpPress}, sopts), "us");
    metric("trace.overhead_s", wr.wall - untraced.wall, "s");
    spans.write(a.workDir + "/" + a.workload + "-" +
                std::to_string(a.seed) + ".trace.jsonl");
    return 0;
}

// ---------------------------------------------------------------------

template <class T>
std::vector<T>
parseIndices(const std::string &s)
{
    std::vector<T> out;
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        out.push_back(static_cast<T>(std::stoi(s.substr(pos, comma - pos))));
        pos = comma + 1;
    }
    return out;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: performa_bench --workload NAME --base-db CSV\n"
                 "       [--seed N] [--seconds S] [--trace 0|1]\n"
                 "       [--work-dir DIR] [--versions I,..] "
                 "[--faults I,..]\n"
                 "workloads: grid_steady grid_flashcrowd_slo "
                 "world16_steady\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        std::string v = argv[++i];
        if (arg == "--workload")
            a.workload = v;
        else if (arg == "--seed")
            a.seed = std::stoull(v);
        else if (arg == "--seconds")
            a.seconds = std::stod(v);
        else if (arg == "--trace")
            a.trace = v != "0";
        else if (arg == "--work-dir")
            a.workDir = v;
        else if (arg == "--base-db")
            a.baseDb = v;
        else if (arg == "--versions")
            a.versions = parseIndices<press::Version>(v);
        else if (arg == "--faults")
            a.faults = parseIndices<fault::FaultKind>(v);
        else {
            usage();
            return 2;
        }
    }
    if (a.baseDb.empty()) {
        usage();
        return 2;
    }

    try {
        if (a.workload == "world16_steady")
            return runWorld(a);
        std::optional<Grid> g = gridFor(a.workload);
        if (!g) {
            usage();
            return 2;
        }
        if (!a.versions.empty())
            g->versions = a.versions;
        if (!a.faults.empty())
            g->faults = a.faults;
        return runGrid(*g, a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "performa_bench: %s\n", e.what());
        return 1;
    }
}
