// Replicated serving — throughput/latency/shed curves vs replica count,
// driven OPEN-LOOP (Poisson arrivals that do not slow down when the
// service struggles; the closed-loop companion is bench_cloud_scaling).
//
// Method: every point is a live run — LoadGenerator::run() drives a real
// ReplicaSet of single-worker SessionService replicas in wall-clock time
// and calls ReplicaSet::tick() every tick, so routing, admission,
// coalescing, the degrade ladder, autoscaling and migration are the
// serving code itself. Replica counts stop at 4: each replica's worker
// wants a core, and the reference box has 4.
//
// Headline numbers (BENCH_cluster_scaling.json, written by
// scripts/bench_cluster_scaling.sh):
//  - BM_ClusterServiceCost: what one request costs a single worker —
//    server_ms (the update cycle) against the worker's wall time per
//    request, which also carries the in-process client model;
//  - shed_rate / p99_ms per (replicas, offered-rate) grid point;
//  - sustainable_per_sec per replica count — the highest offered rate the
//    fleet serves with <= 1% shed;
//  - the flash-crowd runs, without and with the full observability stack
//    (SLO engine and tail sampler): overload detected, scale-ups fired,
//    windowed p99 back under the interactivity deadline
//    (recovered_at_sec).
#include <benchmark/benchmark.h>

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "bench/bench_common.hpp"

#include "src/md/synthetic.hpp"
#include "src/md/trajectory.hpp"
#include "src/obs/slo.hpp"
#include "src/obs/tail_sampler.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/load_generator.hpp"
#include "src/serve/replica_set.hpp"
#include "src/serve/session_service.hpp"
#include "src/support/timer.hpp"

namespace {

using rinkit::count;
namespace md = rinkit::md;
namespace obs = rinkit::obs;
namespace serve = rinkit::serve;
namespace viz = rinkit::viz;

constexpr double kDeadlineMs = 100.0; // the paper's interactivity bar
constexpr double kSustainableShed = 0.01;

const md::Trajectory& benchTrajectory() {
    static const md::Trajectory traj = [] {
        md::TrajectoryGenerator::Parameters params;
        params.frames = 4;
        return md::TrajectoryGenerator(params).generate(md::helixBundle(200));
    }();
    return traj;
}

serve::LoadGenOptions gridOptions(double ratePerSec) {
    serve::LoadGenOptions o;
    o.schedule = serve::LoadSchedule::Constant;
    o.baseRatePerSec = ratePerSec;
    o.durationSec = 3.0;
    // Enough sticky users that the single worker per replica — not
    // per-session FIFO serialization — binds fleet capacity at 4 replicas.
    o.sessions = 64;
    o.deadlineMs = kDeadlineMs;
    return o;
}

/// A fleet of @p replicas single-worker replicas; the autoscaler may move
/// between @p replicas and @p maxReplicas.
serve::ReplicaSetOptions fleetOptions(count replicas, count maxReplicas) {
    serve::ReplicaSetOptions opts;
    opts.initialReplicas = replicas;
    opts.serviceTemplate.workers = 1;
    opts.autoscaler.minReplicas = replicas;
    opts.autoscaler.maxReplicas = maxReplicas;
    return opts;
}

/// One live open-loop run, ticking the fleet's autoscaler every tick.
serve::LoadReport runLive(const serve::ReplicaSetOptions& opts,
                          const serve::LoadGenOptions& load) {
    serve::ReplicaSet fleet(opts);
    serve::LoadGenerator gen(load);
    return gen.run(fleet, benchTrajectory(), [&](double) { fleet.tick(); });
}

void addReportCounters(benchmark::State& state, const serve::LoadReport& rep) {
    state.counters["offered"] = static_cast<double>(rep.offered);
    state.counters["completed"] = static_cast<double>(rep.completed);
    state.counters["rejected"] = static_cast<double>(rep.rejected);
    state.counters["degraded"] = static_cast<double>(rep.degraded);
    state.counters["deadline_missed"] = static_cast<double>(rep.deadlineMissed);
    state.counters["coalesced"] = static_cast<double>(rep.coalesced);
    state.counters["offered_per_sec"] = rep.achievedPerSec;
    state.counters["shed_rate"] = rep.shedRate();
    state.counters["p50_ms"] = rep.p50Ms;
    state.counters["p99_ms"] = rep.p99Ms;
    state.counters["replicas_final"] = static_cast<double>(rep.replicasFinal);
}

/// Per-request cost of one single-worker replica: a serial drain of the
/// load generator's interaction mix (5 frame : 2 cutoff : 2 measure :
/// 1 refresh), each request awaited before the next is submitted.
/// server_mean_ms is the update cycle alone; wall_per_request_ms is how
/// long the worker is busy per request, client model included — the
/// number that bounds a replica's throughput.
void BM_ClusterServiceCost(benchmark::State& state) {
    const auto& traj = benchTrajectory();
    double wallPerRequestMs = 0.0;
    serve::MetricsSnapshot snap;
    for (auto _ : state) {
        serve::SessionServiceOptions opts;
        opts.workers = 1;
        serve::SessionService service(opts);
        const auto id = service.openSession(traj);
        service.submit(id, serve::SliderEvent::refresh()).get(); // warm caches
        count requests = 0;
        const auto submit = [&](serve::SliderEvent event) {
            service.submit(id, event).get();
            ++requests;
        };
        rinkit::Timer wall;
        for (count cycle = 0; cycle < 20; ++cycle) {
            for (count f = 0; f < 5; ++f) submit(serve::SliderEvent::setFrame((cycle + f) % 4));
            submit(serve::SliderEvent::setCutoff(4.0 + 0.1 * static_cast<double>(cycle % 10)));
            submit(serve::SliderEvent::setCutoff(4.5 + 0.1 * static_cast<double>(cycle % 5)));
            submit(serve::SliderEvent::setMeasure(cycle % 2 == 0 ? viz::Measure::Degree
                                                                 : viz::Measure::Closeness));
            submit(serve::SliderEvent::setMeasure(viz::Measure::Closeness));
            submit(serve::SliderEvent::refresh());
        }
        wallPerRequestMs = wall.elapsedMs() / static_cast<double>(requests);
        snap = service.metrics();
    }
    const auto histMean = [&](const char* name) {
        const auto it = snap.histograms.find(name);
        return it == snap.histograms.end() ? 0.0 : it->second.meanMs;
    };
    state.counters["server_mean_ms"] = histMean("server_ms");
    state.counters["exec_mean_ms"] = histMean("total_ms") - histMean("queue_ms");
    state.counters["wall_per_request_ms"] = wallPerRequestMs;
    state.counters["capacity_per_sec"] = 1000.0 / wallPerRequestMs;
    state.counters["hw_threads"] = static_cast<double>(std::thread::hardware_concurrency());
    state.counters["omp_max_threads"] = static_cast<double>(omp_get_max_threads());
}

/// Shed/latency at one (replicas, offered rate) grid point: the same
/// arrival process against a fixed fleet of 1, 2 or 4 replicas answers
/// "what does adding pods buy at this offered rate".
void BM_ClusterShedCurve(benchmark::State& state) {
    const auto replicas = static_cast<count>(state.range(0));
    const auto rate = static_cast<double>(state.range(1));
    serve::LoadReport rep;
    for (auto _ : state) rep = runLive(fleetOptions(replicas, replicas), gridOptions(rate));
    addReportCounters(state, rep);
    state.counters["rate_per_sec"] = rate;
}

/// Highest offered rate a fixed fleet of N replicas serves with <= 1%
/// shed: double the rate from 10/s until a run sheds more, then bisect
/// (geometrically) four times between the last passing and the first
/// failing rate. Every probe is a live run.
void BM_ClusterSustainableRate(benchmark::State& state) {
    const auto replicas = static_cast<count>(state.range(0));
    double sustainable = 0.0;
    double failing = 0.0;
    double shedAtFailing = 0.0;
    count probes = 0;
    for (auto _ : state) {
        const auto sheds = [&](double rate) {
            ++probes;
            const double shed =
                runLive(fleetOptions(replicas, replicas), gridOptions(rate)).shedRate();
            if (shed <= kSustainableShed) return false;
            shedAtFailing = shed;
            return true;
        };
        sustainable = 0.0;
        failing = 10.0;
        while (!sheds(failing)) {
            sustainable = failing;
            failing *= 2.0;
        }
        for (int step = 0; step < 4 && sustainable > 0.0; ++step) {
            const double mid = std::sqrt(sustainable * failing);
            if (sheds(mid))
                failing = mid;
            else
                sustainable = mid;
        }
    }
    state.counters["sustainable_per_sec"] = sustainable;
    state.counters["sustainable_per_replica"] = sustainable / static_cast<double>(replicas);
    state.counters["failing_per_sec"] = failing;
    state.counters["shed_at_failing"] = shedAtFailing;
    state.counters["probes"] = static_cast<double>(probes);
}

/// Flash crowd against a 1-replica fleet with the autoscaler live: the
/// arrival rate jumps 4x mid-run, and the fleet has to detect the
/// overload, add pods, and bring windowed p99 back under the interactivity
/// deadline before the run ends. obs:1 adds the production observability
/// stack — an SLO engine feeding the burn signal and the SLO-driven Approx
/// floor, and tail-based trace retention; obs:0 scales on queue depth and
/// shed rate alone.
void BM_ClusterFlashAutoscale(benchmark::State& state) {
    const bool fullObs = state.range(0) != 0;
    serve::LoadGenOptions o = gridOptions(25.0);
    o.schedule = serve::LoadSchedule::FlashCrowd;
    o.flashMultiplier = 4.0;
    o.durationSec = 20.0;
    o.flashBeginFrac = 0.2;
    o.flashEndFrac = 0.8;
    o.tickIntervalSec = 0.25;

    serve::LoadReport rep;
    for (auto _ : state) {
        serve::ReplicaSetOptions opts = fleetOptions(1, 4);
        if (!fullObs) {
            rep = runLive(opts, o);
            continue;
        }
        // Production objectives with the windows compressed so the fast
        // pair's 1 h long window spans half the run.
        obs::SloConfig slo;
        slo.timeScale = o.durationSec / 7200.0;
        opts.serviceTemplate.slo = std::make_shared<obs::SloEngine>(slo);
        auto sampler = std::make_shared<obs::TailSampler>();
        sampler->install();
        opts.serviceTemplate.tailSampler = sampler;
        auto& tracer = obs::Tracer::global();
        const bool wasEnabled = tracer.enabled();
        const count wasEvery = tracer.sampleEvery();
        tracer.setEnabled(true);
        tracer.setSampleEvery(0); // tail config: only forced request roots
        rep = runLive(opts, o);
        sampler->uninstall();
        tracer.setEnabled(wasEnabled);
        tracer.setSampleEvery(wasEvery);
    }

    addReportCounters(state, rep);
    state.counters["overloaded"] = rep.overloaded ? 1.0 : 0.0;
    state.counters["recovered_at_sec"] = rep.recoveredAtSec;
    state.counters["scale_ups"] = static_cast<double>(rep.scaleUps);
    state.counters["scale_downs"] = static_cast<double>(rep.scaleDowns);
    state.counters["replicas_max"] = static_cast<double>(rep.replicasMax);
    state.counters["end_p99_ms"] = rep.endWindowP99Ms;
    state.counters["end_shed_rate"] = rep.endWindowShedRate;
    // SLO summary: worst objective attainment over the longest window,
    // peak fast burn rate, whether multi-window alerting ever fired, and
    // how many request trees the tail sampler kept.
    state.counters["slo_attainment"] = rep.sloAttainment;
    state.counters["slo_fast_burn_peak"] = rep.sloFastBurnPeak;
    state.counters["slo_alert_fired"] = rep.sloAlertFired ? 1.0 : 0.0;
    state.counters["slo_state_changes"] = static_cast<double>(rep.sloStateChanges);
    state.counters["traces_retained"] = static_cast<double>(rep.tracesRetained);
}

// Wall-clock runs on a shared box are noisy: the cost and the shed curve
// repeat three times and report median/stddev/cv per counter. The
// sustainable-rate search and the flash crowd run once, which keeps the
// whole bench near 6 minutes.
BENCHMARK(BM_ClusterServiceCost)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1)
    ->Repetitions(3)
    ->ReportAggregatesOnly(true);

BENCHMARK(BM_ClusterShedCurve)
    ->ArgNames({"replicas", "rate"})
    ->ArgsProduct({{1, 2, 4}, {25, 50, 100, 150, 200, 300}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1)
    ->Repetitions(3)
    ->ReportAggregatesOnly(true);

BENCHMARK(BM_ClusterSustainableRate)
    ->ArgName("replicas")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

BENCHMARK(BM_ClusterFlashAutoscale)
    ->ArgName("obs")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

} // namespace

RINKIT_BENCH_MAIN()
