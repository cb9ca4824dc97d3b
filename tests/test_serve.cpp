// Serving-layer suite: ThreadPool, latency histograms/metrics registry,
// and SessionService — per-session ordering, latest-wins coalescing,
// admission control, shed/deadline degradation, and the JupyterHub
// dispatch path. The concurrency tests here are the ones scripts/verify.sh
// runs under -fsanitize=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "src/cloud/cluster.hpp"
#include "src/cloud/jupyterhub.hpp"
#include "src/md/synthetic.hpp"
#include "src/md/trajectory.hpp"
#include "src/serve/metrics.hpp"
#include "src/serve/session_service.hpp"
#include "src/support/json.hpp"
#include "src/support/thread_pool.hpp"

namespace {

using namespace rinkit;
using serve::RequestOutcome;
using serve::RequestStatus;
using serve::SessionService;
using serve::SliderEvent;

md::Trajectory smallTrajectory(count frames = 4) {
    md::TrajectoryGenerator::Parameters params;
    params.frames = frames;
    return md::TrajectoryGenerator(params).generate(md::chignolin());
}

// Large enough that one update cycle takes milliseconds — used by the
// queueing tests so a burst of submissions reliably outpaces execution.
md::Trajectory slowTrajectory() {
    md::TrajectoryGenerator::Parameters params;
    params.frames = 4;
    return md::TrajectoryGenerator(params).generate(md::helixBundle(200));
}

// submitted == completed + coalesced + rejected must hold once every
// future has resolved: each submission ends in exactly one bucket.
void expectCounterInvariant(const serve::MetricsSnapshot& snap) {
    EXPECT_EQ(snap.counter("submitted"),
              snap.counter("completed") + snap.counter("coalesced") + snap.counter("rejected"));
}

TEST(ThreadPool, RunsAllSubmittedTasks) {
    std::atomic<int> ran{0};
    {
        ThreadPool pool(4);
        EXPECT_EQ(pool.size(), 4u);
        for (int i = 0; i < 100; ++i) {
            pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        }
        // Destructor drains the queue before joining.
    }
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ZeroRequestedThreadsStillWorks) {
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    std::promise<int> p;
    pool.submit([&p] { p.set_value(42); });
    EXPECT_EQ(p.get_future().get(), 42);
}

TEST(LatencyHistogram, PercentilesAreSaneOnUniformData) {
    serve::LatencyHistogram h;
    for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
    EXPECT_EQ(h.samples(), 100u);
    EXPECT_DOUBLE_EQ(h.meanMs(), 50.5);
    EXPECT_DOUBLE_EQ(h.maxMs(), 100.0);

    const double p50 = h.percentile(50.0);
    const double p95 = h.percentile(95.0);
    const double p99 = h.percentile(99.0);
    // Bins grow 25% per step, so any percentile is within ~13% of exact.
    EXPECT_NEAR(p50, 50.0, 50.0 * 0.15);
    EXPECT_NEAR(p95, 95.0, 95.0 * 0.15);
    EXPECT_NEAR(p99, 99.0, 99.0 * 0.15);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_LE(p99, h.maxMs());
}

TEST(LatencyHistogram, SingleSampleReportsItselfEverywhere) {
    serve::LatencyHistogram h;
    h.record(7.5);
    // Clamped to the observed max, so a sparse histogram never overshoots.
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 7.5);
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 7.5);
    EXPECT_DOUBLE_EQ(h.maxMs(), 7.5);
}

TEST(LatencyHistogram, EmptyAndZeroSamples) {
    serve::LatencyHistogram h;
    EXPECT_EQ(h.percentile(99.0), 0.0);
    h.record(0.0);
    h.record(-3.0); // clamps to 0
    EXPECT_EQ(h.samples(), 2u);
    EXPECT_EQ(h.percentile(50.0), 0.0);
}

TEST(LatencyHistogram, EmptyReportsZeroEverywhere) {
    const serve::LatencyHistogram h;
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_DOUBLE_EQ(h.meanMs(), 0.0);
    EXPECT_DOUBLE_EQ(h.minMs(), 0.0);
    EXPECT_DOUBLE_EQ(h.maxMs(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 0.0);
}

TEST(LatencyHistogram, SingleSampleMinEqualsMax) {
    serve::LatencyHistogram h;
    h.record(3.25);
    EXPECT_EQ(h.samples(), 1u);
    EXPECT_DOUBLE_EQ(h.minMs(), 3.25);
    EXPECT_DOUBLE_EQ(h.maxMs(), 3.25);
    EXPECT_DOUBLE_EQ(h.meanMs(), 3.25);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.25);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 3.25);
}

TEST(LatencyHistogram, PercentileIsClampedToObservedMax) {
    serve::LatencyHistogram h;
    // 1000 ms lands deep in a wide log bin (25% growth): the bin's upper
    // edge is far above the sample, and an unclamped percentile would
    // report it. Every percentile must stay at the observed max instead.
    for (int i = 0; i < 10; ++i) h.record(1000.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 1000.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 1000.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 1000.0);
    EXPECT_DOUBLE_EQ(h.maxMs(), 1000.0);
}

TEST(LatencyHistogram, NegativeSamplesClampToZero) {
    serve::LatencyHistogram h;
    h.record(-5.0);
    h.record(-0.001);
    EXPECT_EQ(h.samples(), 2u);
    EXPECT_DOUBLE_EQ(h.minMs(), 0.0);
    EXPECT_DOUBLE_EQ(h.maxMs(), 0.0);
    EXPECT_DOUBLE_EQ(h.meanMs(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 0.0);
    // Mixing in a real sample keeps aggregates finite and ordered.
    h.record(2.0);
    EXPECT_DOUBLE_EQ(h.maxMs(), 2.0);
    EXPECT_LE(h.percentile(50.0), h.percentile(99.0));
}

TEST(MetricsRegistry, SnapshotAndJsonRoundTrip) {
    serve::MetricsRegistry reg;
    reg.recordLatency("server_ms", 12.0);
    reg.recordLatency("server_ms", 30.0);
    reg.increment("completed");
    reg.increment("completed", 2);
    reg.gaugeQueueDepth(5);
    reg.gaugeQueueDepth(2);

    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.counter("completed"), 3u);
    EXPECT_EQ(snap.counter("missing"), 0u);
    EXPECT_EQ(snap.queueDepth, 2u);
    EXPECT_EQ(snap.queueDepthMax, 5u);
    ASSERT_EQ(snap.histograms.count("server_ms"), 1u);
    EXPECT_EQ(snap.histograms.at("server_ms").samples, 2u);

    const auto parsed = JsonValue::parse(snap.toJson());
    EXPECT_EQ(parsed.at("counters").at("completed").asNumber(), 3.0);
    EXPECT_EQ(parsed.at("queue_depth_max").asNumber(), 5.0);
    const auto& server = parsed.at("histograms").at("server_ms");
    EXPECT_EQ(server.at("count").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(server.at("mean_ms").asNumber(), 21.0);
    EXPECT_LE(server.at("p50_ms").asNumber(), server.at("p99_ms").asNumber());
}

TEST(SessionService, AppliesSequentialEventsInOrder) {
    const auto traj = smallTrajectory();
    SessionService service;
    const auto id = service.openSession(traj);

    // Submit one at a time so nothing can coalesce: the applied log must
    // be exactly the submitted sequence.
    const std::vector<SliderEvent> events = {
        SliderEvent::setFrame(1), SliderEvent::setCutoff(5.0),
        SliderEvent::setMeasure(viz::Measure::Degree), SliderEvent::refresh(),
        SliderEvent::setFrame(2)};
    for (const auto& e : events) {
        const auto outcome = service.submit(id, e).get();
        EXPECT_EQ(outcome.status, RequestStatus::Ok);
        EXPECT_FALSE(outcome.deadlineMissed);
    }

    const auto applied = service.appliedEvents(id);
    ASSERT_EQ(applied.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) EXPECT_EQ(applied[i], events[i].kind);

    const auto snap = service.metrics();
    EXPECT_EQ(snap.counter("submitted"), events.size());
    EXPECT_EQ(snap.counter("completed"), events.size());
    EXPECT_EQ(snap.counter("coalesced"), 0u);
    expectCounterInvariant(snap);
    EXPECT_GE(snap.histograms.at("server_ms").samples, events.size());
}

TEST(SessionService, WireCountersTrackShippedFrames) {
    const auto traj = smallTrajectory();
    SessionService service;
    viz::RinWidget::Options widgetOpts;
    widgetOpts.wireFormat = viz::WireFormat::Binary;
    widgetOpts.wireKeyframeInterval = 2; // force periodic keyframes quickly
    const auto id = service.openSession(traj, widgetOpts);

    const count events = 6;
    for (count i = 0; i < events; ++i) {
        const auto outcome =
            service.submit(id, SliderEvent::setFrame(static_cast<rinkit::index>((i + 1) % 4))).get();
        EXPECT_EQ(outcome.status, RequestStatus::Ok);
    }

    // Every completed request ships exactly one frame, and each shipped
    // frame is either a keyframe or a delta (binary session).
    const auto snap = service.metrics();
    EXPECT_EQ(snap.counter("frames_shipped"), events);
    EXPECT_GT(snap.counter("wire_bytes"), 0u);
    EXPECT_EQ(snap.counter("wire_keyframes") + snap.counter("wire_delta_frames"),
              snap.counter("frames_shipped"));
    EXPECT_GT(snap.counter("wire_keyframes"), 0u);
    EXPECT_GT(snap.counter("wire_delta_frames"), 0u);
}

TEST(SessionService, JsonSessionsCountBytesWithoutFrameSplit) {
    const auto traj = smallTrajectory();
    SessionService service;
    const auto id = service.openSession(traj); // default: JSON payloads

    service.submit(id, SliderEvent::setCutoff(6.0)).get();
    service.submit(id, SliderEvent::setFrame(1)).get();

    // wire_bytes counts whatever format actually shipped (here: figure
    // JSON); the keyframe/delta split only applies to binary sessions.
    const auto snap = service.metrics();
    EXPECT_EQ(snap.counter("frames_shipped"), 2u);
    EXPECT_GT(snap.counter("wire_bytes"), 0u);
    EXPECT_EQ(snap.counter("wire_keyframes"), 0u);
    EXPECT_EQ(snap.counter("wire_delta_frames"), 0u);
}

TEST(SessionService, LatestWinsCoalescingCollapsesBursts) {
    const auto traj = slowTrajectory();
    SessionService::Options options;
    options.workers = 1;
    options.maxQueuedPerSession = 64;
    SessionService service(options);
    const auto id = service.openSession(traj);

    // A tight burst of same-kind events against a single worker whose
    // update cycle takes milliseconds: all but the in-flight one collapse
    // into one queued slot.
    constexpr count kBurst = 30;
    std::vector<std::future<RequestOutcome>> futures;
    for (count i = 0; i < kBurst; ++i) {
        futures.push_back(service.submit(id, SliderEvent::setFrame(i % 4)));
    }
    for (auto& f : futures) EXPECT_TRUE(f.get().accepted());
    service.drain();

    const auto snap = service.metrics();
    EXPECT_EQ(snap.counter("submitted"), kBurst);
    EXPECT_GE(snap.counter("coalesced"), 1u);
    EXPECT_LT(snap.counter("completed"), kBurst);
    expectCounterInvariant(snap);
    // The applied log only contains the events that actually ran.
    EXPECT_EQ(service.appliedEvents(id).size(), snap.counter("completed"));
}

TEST(SessionService, AdmissionControlRejectsWhenQueueIsFull) {
    const auto traj = slowTrajectory();
    SessionService::Options options;
    options.workers = 1;
    options.maxQueuedPerSession = 1;
    SessionService service(options);
    const auto id = service.openSession(traj);

    // Alternate kinds so coalescing cannot absorb the burst; with one
    // queued slot allowed, most of it must bounce.
    std::vector<std::future<RequestOutcome>> futures;
    for (count i = 0; i < 24; ++i) {
        futures.push_back(service.submit(
            id, i % 2 == 0 ? SliderEvent::setFrame(i % 4)
                           : SliderEvent::setCutoff(4.0 + 0.1 * static_cast<double>(i % 8))));
    }
    count rejected = 0;
    for (auto& f : futures) {
        if (f.get().status == RequestStatus::Rejected) ++rejected;
    }
    service.drain();

    const auto snap = service.metrics();
    EXPECT_GE(rejected, 1u);
    EXPECT_EQ(snap.counter("rejected"), rejected);
    expectCounterInvariant(snap);
    // Bounded queue: never more than in-flight + the admission bound.
    EXPECT_LE(snap.queueDepthMax, options.maxQueuedPerSession + 1);
}

TEST(SessionService, DeepBacklogShedsToDegraded) {
    const auto traj = slowTrajectory();
    SessionService::Options options;
    options.workers = 1;
    options.degradeQueueDepth = 0; // any waiter behind you -> degrade
    SessionService service(options);
    const auto id = service.openSession(traj);

    std::vector<std::future<RequestOutcome>> futures;
    futures.push_back(service.submit(id, SliderEvent::setFrame(1)));
    futures.push_back(service.submit(id, SliderEvent::setCutoff(5.0)));
    futures.push_back(service.submit(id, SliderEvent::setMeasure(viz::Measure::Degree)));
    futures.push_back(service.submit(id, SliderEvent::refresh()));

    count degraded = 0;
    for (auto& f : futures) {
        const auto outcome = f.get();
        EXPECT_TRUE(outcome.accepted());
        if (outcome.degraded()) {
            ++degraded;
            EXPECT_TRUE(outcome.timing.degraded);
        }
    }
    service.drain();
    const auto snap = service.metrics();
    EXPECT_GE(degraded, 1u);
    EXPECT_GE(snap.counter("shed_degraded"), 1u);
    expectCounterInvariant(snap);
}

// The degradation ladder's order: beyond degradeQueueDepth a request runs
// with DegradeLevel::Approx (sampled measures, stated bound); only beyond
// staleQueueDepth does it escalate to Stale (older graph version). The
// tier each request was actually served at is visible in the outcome and
// the measure_tier_* counters.
TEST(SessionService, LadderEscalatesApproxThenStale) {
    const auto traj = slowTrajectory();
    SessionService::Options options;
    options.workers = 1;
    options.degradeQueueDepth = 0; // 1+ waiters behind -> Approx
    options.staleQueueDepth = 1;   // 2+ waiters behind -> Stale
    SessionService service(options);
    const auto id = service.openSession(traj);

    // FIFO pops while the setFrame executes: setCutoff sees 2 waiters
    // behind (Stale), setMeasure(Betweenness) sees 1 (Approx -> the engine
    // samples with its kDegradeEpsilon floor), refresh sees 0 (exact).
    std::vector<std::future<RequestOutcome>> futures;
    futures.push_back(service.submit(id, SliderEvent::setFrame(1)));
    futures.push_back(service.submit(id, SliderEvent::setCutoff(5.0)));
    futures.push_back(service.submit(id, SliderEvent::setMeasure(viz::Measure::Betweenness)));
    futures.push_back(service.submit(id, SliderEvent::refresh()));

    count staleServed = 0;
    count approxServed = 0;
    for (auto& f : futures) {
        const auto outcome = f.get();
        EXPECT_TRUE(outcome.accepted());
        if (outcome.timing.measureTier == viz::ResolutionTier::Stale) ++staleServed;
        if (outcome.timing.measureTier == viz::ResolutionTier::Approx) {
            ++approxServed;
            // An approximate answer always states its achieved bound.
            EXPECT_GT(outcome.timing.measureEps, 0.0);
            EXPECT_LE(outcome.timing.measureEps, 0.1);
            EXPECT_GT(outcome.timing.measureSamples, 0u);
        }
        // Any non-exact tier must have been flagged degraded.
        if (outcome.timing.measureTier != viz::ResolutionTier::Exact) {
            EXPECT_TRUE(outcome.degraded());
        }
    }
    service.drain();
    EXPECT_GE(staleServed, 1u);
    EXPECT_GE(approxServed, 1u);

    const auto snap = service.metrics();
    EXPECT_GE(snap.counter("shed_stale"), 1u);
    EXPECT_GE(snap.counter("shed_degraded"), snap.counter("shed_stale"));
    EXPECT_GE(snap.counter("measure_tier_stale"), staleServed);
    EXPECT_GE(snap.counter("measure_tier_approx"), approxServed);
    // Every completed request lands in exactly one tier bucket.
    EXPECT_EQ(snap.counter("measure_tier_exact") + snap.counter("measure_tier_approx") +
                  snap.counter("measure_tier_stale"),
              snap.counter("completed"));
    expectCounterInvariant(snap);
}

// Moderate overload must stop at the Approx rung: with the stale threshold
// out of reach, no request may be served from an old graph version no
// matter how many degrade. Approximate-with-bounds ranks above stale.
TEST(SessionService, ModerateBacklogNeverServesStale) {
    const auto traj = slowTrajectory();
    SessionService::Options options;
    options.workers = 1;
    options.degradeQueueDepth = 0;
    // staleQueueDepth stays at its default (6): four distinct event kinds
    // can never stack that deep, so the last rung is unreachable here.
    SessionService service(options);
    const auto id = service.openSession(traj);

    std::vector<std::future<RequestOutcome>> futures;
    futures.push_back(service.submit(id, SliderEvent::setFrame(1)));
    futures.push_back(service.submit(id, SliderEvent::setCutoff(5.0)));
    futures.push_back(service.submit(id, SliderEvent::setMeasure(viz::Measure::Betweenness)));
    futures.push_back(service.submit(id, SliderEvent::refresh()));

    for (auto& f : futures) {
        const auto outcome = f.get();
        EXPECT_TRUE(outcome.accepted());
        EXPECT_NE(outcome.timing.measureTier, viz::ResolutionTier::Stale);
    }
    service.drain();

    const auto snap = service.metrics();
    EXPECT_GE(snap.counter("shed_degraded"), 1u);
    EXPECT_EQ(snap.counter("shed_stale"), 0u);
    EXPECT_EQ(snap.counter("measure_tier_stale"), 0u);
    expectCounterInvariant(snap);
}

TEST(SessionService, BlownDeadlineIsFlaggedAndServedDegraded) {
    const auto traj = slowTrajectory();
    SessionService::Options options;
    options.workers = 1;
    SessionService service(options);
    const auto id = service.openSession(traj);

    // Microsecond deadline: anything that waits in the queue at all has
    // missed it. The request is still served (degraded), never dropped.
    std::vector<std::future<RequestOutcome>> futures;
    futures.push_back(service.submit(id, SliderEvent::setFrame(1, /*deadlineMs=*/1e-4)));
    futures.push_back(service.submit(id, SliderEvent::setCutoff(5.0, /*deadlineMs=*/1e-4)));
    futures.push_back(service.submit(id, SliderEvent::refresh(/*deadlineMs=*/1e-4)));

    count missed = 0;
    for (auto& f : futures) {
        const auto outcome = f.get();
        EXPECT_TRUE(outcome.accepted());
        if (outcome.deadlineMissed) {
            ++missed;
            EXPECT_EQ(outcome.status, RequestStatus::OkDegraded);
        }
    }
    service.drain();
    EXPECT_GE(missed, 1u);
    EXPECT_EQ(service.metrics().counter("deadline_missed"), missed);
}

TEST(SessionService, CloseSessionRejectsBacklogAndInvalidatesId) {
    const auto traj = slowTrajectory();
    SessionService::Options options;
    options.workers = 1;
    SessionService service(options);
    const auto id = service.openSession(traj);

    std::vector<std::future<RequestOutcome>> futures;
    for (count i = 0; i < 6; ++i) {
        futures.push_back(service.submit(
            id, i % 2 == 0 ? SliderEvent::setFrame(i % 4) : SliderEvent::setCutoff(5.0)));
    }
    service.closeSession(id);

    // Every future still resolves — executed, coalesced, or rejected.
    for (auto& f : futures) f.get();
    service.drain();
    EXPECT_EQ(service.activeSessions(), 0u);
    expectCounterInvariant(service.metrics());
    EXPECT_THROW(service.submit(id, SliderEvent::refresh()), std::invalid_argument);
    EXPECT_THROW((void)service.appliedEvents(id), std::invalid_argument);
}

TEST(SessionService, UnknownSessionThrows) {
    SessionService service;
    EXPECT_THROW(service.submit(999, SliderEvent::refresh()), std::invalid_argument);
}

// The TSan workhorse: several threads hammer their own sessions plus one
// shared session with interleaved slider events. Asserts the service-wide
// accounting invariant, that every accepted request resolves, and that
// each private session's applied log is a subsequence of its submission
// order (per-session FIFO ordering survives coalescing).
TEST(SessionService, ConcurrentClientsOrderingAndAccounting) {
    const auto traj = smallTrajectory();
    SessionService::Options options;
    options.workers = 4;
    options.maxQueuedPerSession = 64; // no rejections: isolate ordering
    SessionService service(options);

    constexpr count kThreads = 4;
    constexpr count kEventsPerThread = 40;
    const auto shared = service.openSession(traj);
    std::vector<serve::SessionId> privateIds;
    for (count t = 0; t < kThreads; ++t) privateIds.push_back(service.openSession(traj));

    auto makeEvent = [](count i) {
        switch (i % 4) {
        case 0: return SliderEvent::setFrame(static_cast<rinkit::index>(i % 4));
        case 1: return SliderEvent::setCutoff(4.0 + 0.25 * static_cast<double>(i % 5));
        case 2:
            return SliderEvent::setMeasure(i % 8 < 4 ? viz::Measure::Degree
                                                     : viz::Measure::Closeness);
        default: return SliderEvent::refresh();
        }
    };

    std::vector<std::vector<SliderEvent::Kind>> submittedKinds(kThreads);
    std::vector<std::thread> threads;
    std::vector<std::vector<std::future<RequestOutcome>>> futures(kThreads);
    for (count t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (count i = 0; i < kEventsPerThread; ++i) {
                const auto event = makeEvent(i + t);
                submittedKinds[t].push_back(event.kind);
                futures[t].push_back(service.submit(privateIds[t], event));
                futures[t].push_back(service.submit(shared, makeEvent(i * 3 + t)));
            }
        });
    }
    for (auto& th : threads) th.join();

    count accepted = 0;
    for (auto& perThread : futures) {
        for (auto& f : perThread) {
            if (f.get().accepted()) ++accepted;
        }
    }
    service.drain();
    EXPECT_GE(accepted, kThreads * kEventsPerThread); // at least all private ones

    const auto snap = service.metrics();
    EXPECT_EQ(snap.counter("submitted"), 2 * kThreads * kEventsPerThread);
    expectCounterInvariant(snap);
    EXPECT_EQ(snap.counter("rejected"), 0u);

    // Ordering: coalescing deletes entries from the submission sequence
    // but never reorders it, so each applied log must be a subsequence.
    for (count t = 0; t < kThreads; ++t) {
        const auto applied = service.appliedEvents(privateIds[t]);
        EXPECT_FALSE(applied.empty());
        std::size_t cursor = 0;
        for (const auto kind : applied) {
            while (cursor < submittedKinds[t].size() && submittedKinds[t][cursor] != kind)
                ++cursor;
            ASSERT_LT(cursor, submittedKinds[t].size())
                << "applied log is not a subsequence of the submission order";
            ++cursor;
        }
    }
}

TEST(JupyterHub, DispatchesSliderEventsIntoAttachedService) {
    auto cluster = cloud::Cluster::paperReferenceCluster(2, cloud::Resources{64000, 262144});
    cloud::JupyterHub hub(cluster);
    const auto traj = smallTrajectory();
    SessionService service;

    ASSERT_TRUE(hub.login("alice"));
    // Without an attached service the slider route reports unroutable.
    EXPECT_FALSE(hub.routeUserRequest("alice", "10.0.0.1", SliderEvent::refresh()).has_value());

    hub.attachService(service, traj);
    auto fut = hub.routeUserRequest("alice", "10.0.0.1", SliderEvent::setFrame(1));
    ASSERT_TRUE(fut.has_value());
    EXPECT_TRUE(fut->get().accepted());
    EXPECT_EQ(service.activeSessions(), 1u);

    // Unknown users are not routable; logout tears the serve session down.
    EXPECT_FALSE(hub.routeUserRequest("mallory", "10.0.0.2", SliderEvent::refresh()).has_value());
    hub.logout("alice");
    EXPECT_FALSE(hub.routeUserRequest("alice", "10.0.0.1", SliderEvent::refresh()).has_value());
    EXPECT_EQ(service.activeSessions(), 0u);
}

} // namespace
