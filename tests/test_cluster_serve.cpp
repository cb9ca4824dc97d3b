// Replicated-serving suite: consistent-hash ring stability, autoscaler
// hysteresis, ReplicaSet sticky routing, loss-free scale-down migration
// (every queued future survives; the wire stream resyncs byte-equivalently
// to an unmigrated run), Cluster deployment reconcile, and the open-loop
// load generator. The concurrency test here is the one scripts/verify.sh
// --cluster runs under -fsanitize=thread.
#include <gtest/gtest.h>

#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/cloud/cluster.hpp"
#include "src/md/synthetic.hpp"
#include "src/md/trajectory.hpp"
#include "src/obs/event_log.hpp"
#include "src/obs/exporters.hpp"
#include "src/obs/slo.hpp"
#include "src/obs/tail_sampler.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/load_generator.hpp"
#include "src/serve/replica_set.hpp"
#include "src/serve/session_service.hpp"
#include "src/wire/scene_frame.hpp"

namespace {

using namespace rinkit;
using serve::Autoscaler;
using serve::AutoscalerOptions;
using serve::AutoscalerSignals;
using serve::ConsistentHashRing;
using serve::ReplicaSet;
using serve::ReplicaSetOptions;
using serve::RequestOutcome;
using serve::SessionService;
using serve::SliderEvent;

md::Trajectory smallTrajectory(count frames = 4) {
    md::TrajectoryGenerator::Parameters params;
    params.frames = frames;
    return md::TrajectoryGenerator(params).generate(md::chignolin());
}

/// Per-replica accounting must hold with migration in the picture: every
/// submission or adoption ends in exactly one of the four terminal buckets.
void expectReplicaInvariant(const serve::MetricsSnapshot& snap) {
    EXPECT_EQ(snap.counter("submitted") + snap.counter("adopted"),
              snap.counter("completed") + snap.counter("coalesced") +
                  snap.counter("rejected") + snap.counter("handed_off"))
        << "replica=" << snap.replica;
}

// -- consistent hashing -------------------------------------------------------

TEST(ConsistentHashRing, OnlyFractionOfKeysMoveOnAdd) {
    ConsistentHashRing ring(64);
    for (count r = 0; r < 4; ++r) ring.add(r);

    const count keys = 1000;
    std::vector<count> before(keys);
    for (count k = 0; k < keys; ++k) before[k] = ring.route("user-" + std::to_string(k));

    ring.add(4);
    count moved = 0;
    for (count k = 0; k < keys; ++k) {
        const count owner = ring.route("user-" + std::to_string(k));
        if (owner != before[k]) {
            ++moved;
            // A key only ever moves TO the new replica, never between
            // survivors — that is the whole point of consistent hashing.
            EXPECT_EQ(owner, 4u);
        }
    }
    // Expect ~K/N = 200 moved; allow generous slack for vnode placement.
    EXPECT_GT(moved, keys / 10);
    EXPECT_LT(moved, keys / 2);

    // Removing the replica restores the exact original assignment.
    ring.remove(4);
    for (count k = 0; k < keys; ++k)
        EXPECT_EQ(ring.route("user-" + std::to_string(k)), before[k]);
}

TEST(ConsistentHashRing, SpreadsKeysAcrossReplicas) {
    ConsistentHashRing ring(64);
    for (count r = 0; r < 4; ++r) ring.add(r);
    std::map<count, count> perReplica;
    const count keys = 2000;
    for (count k = 0; k < keys; ++k) ++perReplica[ring.route("u" + std::to_string(k))];
    ASSERT_EQ(perReplica.size(), 4u);
    for (const auto& [replica, n] : perReplica) {
        EXPECT_GT(n, keys / 16) << "replica " << replica << " starved";
        EXPECT_LT(n, keys / 2) << "replica " << replica << " overloaded";
    }
}

// -- autoscaler hysteresis ----------------------------------------------------

TEST(Autoscaler, HoldsOnIsolatedHotTick) {
    Autoscaler as;
    AutoscalerSignals hot;
    hot.replicas = 1;
    hot.shedRate = 0.5;
    AutoscalerSignals cool;
    cool.replicas = 1;
    // One hot tick is noise, not load: upAfterTicks = 2 requires a streak.
    EXPECT_EQ(as.evaluate(hot), Autoscaler::Decision::Hold);
    EXPECT_EQ(as.evaluate(cool), Autoscaler::Decision::Hold);
    EXPECT_EQ(as.evaluate(hot), Autoscaler::Decision::Hold);
}

TEST(Autoscaler, NoFlappingUnderSquareWave) {
    AutoscalerOptions opts;
    opts.maxReplicas = 8;
    Autoscaler as(opts);

    count replicas = 1;
    count ups = 0;
    count downs = 0;
    count transitions = 0;
    Autoscaler::Decision last = Autoscaler::Decision::Hold;

    // Square wave: 12 overloaded ticks, then 12 idle ticks, five periods.
    for (count period = 0; period < 5; ++period) {
        for (count phase = 0; phase < 2; ++phase) {
            const bool hot = phase == 0;
            for (count t = 0; t < 12; ++t) {
                AutoscalerSignals s;
                s.replicas = replicas;
                s.shedRate = hot ? 0.2 : 0.0;
                s.queueDepthPerReplica = hot ? 50.0 : 0.0;
                const auto d = as.evaluate(s);
                if (d == Autoscaler::Decision::Up) {
                    ++replicas;
                    ++ups;
                    EXPECT_TRUE(hot) << "scaled up on an idle tick";
                } else if (d == Autoscaler::Decision::Down) {
                    --replicas;
                    ++downs;
                    EXPECT_FALSE(hot) << "scaled down on an overloaded tick";
                }
                if (d != Autoscaler::Decision::Hold && d != last) ++transitions;
                if (d != Autoscaler::Decision::Hold) last = d;
            }
        }
    }
    // Hysteresis bounds the reaction: with upAfter=2/cooldown=3 a 12-tick
    // hot phase allows at most 3 ups; downAfter=5/cooldown=3 allows at
    // most 2 downs per cold phase. No runaway flapping.
    EXPECT_LE(ups, 15u);
    EXPECT_LE(downs, 10u);
    EXPECT_GE(replicas, 1u);
    // Direction changes at most once per phase: <= 2 per period.
    EXPECT_LE(transitions, 10u);
}

TEST(Autoscaler, SloBurnRateAloneDrivesScaleUpAndBlocksScaleDown) {
    AutoscalerOptions opts; // sloBurnRateHigh = 14.4 (the page threshold)
    Autoscaler as(opts);

    // The budget is fast-burning but every queue/latency/shed signal is
    // quiet: the SLO signal alone must page the autoscaler — that is the
    // whole point of scaling on burn (it fires before queues back up).
    AutoscalerSignals burning;
    burning.replicas = 2;
    burning.sloFastBurnRate = 20.0;
    EXPECT_EQ(as.evaluate(burning), Autoscaler::Decision::Hold); // streak 1 of 2
    EXPECT_EQ(as.evaluate(burning), Autoscaler::Decision::Up);

    // A burn above lowLoadFraction * threshold (3.6) is not "cold": it
    // blocks scale-down indefinitely even though every other signal is at
    // zero — the budget is still being spent faster than steady state.
    AutoscalerSignals warm;
    warm.replicas = 3;
    warm.sloFastBurnRate = 5.0;
    for (count t = 0; t < opts.cooldownTicks + 3 * opts.downAfterTicks; ++t)
        EXPECT_EQ(as.evaluate(warm), Autoscaler::Decision::Hold);

    // Fully cooled burn releases the down path after the usual streak.
    AutoscalerSignals cold;
    cold.replicas = 3;
    cold.sloFastBurnRate = 1.0;
    Autoscaler::Decision last = Autoscaler::Decision::Hold;
    for (count t = 0; t < opts.downAfterTicks; ++t) last = as.evaluate(cold);
    EXPECT_EQ(last, Autoscaler::Decision::Down);

    // sloBurnRateHigh = 0 disables the signal: deployments without an SLO
    // engine neither page on the (never-set) burn nor block scale-down.
    AutoscalerOptions off;
    off.sloBurnRateHigh = 0.0;
    Autoscaler dark(off);
    AutoscalerSignals bogus;
    bogus.replicas = 1;
    bogus.sloFastBurnRate = 100.0;
    for (count t = 0; t < 4; ++t)
        EXPECT_EQ(dark.evaluate(bogus), Autoscaler::Decision::Hold);
}

// -- cluster deployment reconcile ---------------------------------------------

TEST(Cluster, DeletePodReconcilesDeploymentReplicas) {
    auto cluster = cloud::Cluster::paperReferenceCluster();
    cluster.createNamespace("apps");
    cluster.createServiceAccount("apps", "ops",
                                 {cloud::Permission::DeletePods, cloud::Permission::ListPods});
    cloud::Deployment dep;
    dep.name = "web";
    dep.replicas = 3;
    cluster.apply("apps", dep);
    ASSERT_EQ(cluster.deploymentReplicas("apps", "web"), 3u);

    const auto pods = cluster.pods("apps", "ops");
    ASSERT_EQ(pods.size(), 3u);
    cluster.deletePod("apps", "ops", pods.front().uid);

    // The fix under test: terminating a deployment-owned pod must not
    // leave the deployment's desired count stale.
    EXPECT_EQ(cluster.deploymentReplicas("apps", "web"), 2u);
    EXPECT_EQ(cluster.pods("apps", "ops").size(), 2u);
}

TEST(Cluster, ScaleDeploymentNeverReusesPodNames) {
    auto cluster = cloud::Cluster::paperReferenceCluster();
    cluster.createNamespace("apps");
    cloud::Deployment dep;
    dep.name = "web";
    dep.replicas = 1;
    cluster.apply("apps", dep);

    cluster.scaleDeployment("apps", "web", 3);
    EXPECT_EQ(cluster.deploymentReplicas("apps", "web"), 3u);
    EXPECT_EQ(cluster.pods("apps").size(), 3u);

    cluster.scaleDeployment("apps", "web", 1);
    EXPECT_EQ(cluster.pods("apps").size(), 1u);

    cluster.scaleDeployment("apps", "web", 2);
    std::set<std::string> names;
    for (const auto& pod : cluster.pods("apps")) names.insert(pod.spec.name);
    // Ordinals continue past the scale-down: web-0 (survivor) + web-3.
    EXPECT_TRUE(names.count("web-0"));
    EXPECT_TRUE(names.count("web-3"));
}

// -- replica set --------------------------------------------------------------

ReplicaSetOptions smallFleet(count replicas) {
    ReplicaSetOptions opts;
    opts.initialReplicas = replicas;
    opts.autoscaler.maxReplicas = 8;
    opts.serviceTemplate.workers = 2;
    return opts;
}

TEST(ReplicaSet, RoutesStickyAndSpreadsSessions) {
    const auto traj = smallTrajectory();
    ReplicaSet fleet(smallFleet(4));
    ASSERT_EQ(fleet.replicaCount(), 4u);

    std::vector<serve::SessionId> ids;
    std::set<count> replicasUsed;
    for (count u = 0; u < 32; ++u) {
        const auto id = fleet.openSession(traj, {}, "user-" + std::to_string(u));
        ids.push_back(id);
        replicasUsed.insert(fleet.sessionReplica(id));
    }
    EXPECT_GT(replicasUsed.size(), 1u) << "all sessions landed on one replica";
    EXPECT_EQ(fleet.activeSessions(), 32u);

    // Sticky: the same session stays on its replica across interactions.
    for (count round = 0; round < 3; ++round) {
        std::vector<std::future<RequestOutcome>> futures;
        for (count u = 0; u < ids.size(); ++u)
            futures.push_back(fleet.submit(ids[u], SliderEvent::setFrame(round % 4)));
        for (auto& f : futures) EXPECT_TRUE(f.get().accepted());
        for (count u = 0; u < ids.size(); ++u)
            EXPECT_EQ(fleet.sessionReplica(ids[u]),
                      fleet.routeOf("user-" + std::to_string(u)));
    }
    fleet.drain();
    expectReplicaInvariant(fleet.metrics());
}

TEST(ReplicaSet, ScaleUpMovesOnlyFractionOfSessions) {
    const auto traj = smallTrajectory();
    ReplicaSet fleet(smallFleet(3));

    std::map<serve::SessionId, count> before;
    for (count u = 0; u < 30; ++u) {
        const auto id = fleet.openSession(traj, {}, "user-" + std::to_string(u));
        before[id] = fleet.sessionReplica(id);
    }

    ASSERT_TRUE(fleet.scaleUp());
    EXPECT_EQ(fleet.replicaCount(), 4u);

    count moved = 0;
    for (const auto& [id, replica] : before)
        if (fleet.sessionReplica(id) != replica) ++moved;
    // ~K/N = 7.5 expected; anything near "all" means stickiness is broken.
    EXPECT_LT(moved, 20u);
    EXPECT_EQ(fleet.activeSessions(), 30u);

    // Every session still serves after the rebalance.
    std::vector<std::future<RequestOutcome>> futures;
    for (const auto& [id, replica] : before)
        futures.push_back(fleet.submit(id, SliderEvent::setCutoff(4.8)));
    for (auto& f : futures) EXPECT_TRUE(f.get().accepted());
    fleet.drain();
    expectReplicaInvariant(fleet.metrics());
}

TEST(ReplicaSet, ScaleDownHandsOffEveryQueuedFuture) {
    const auto traj = smallTrajectory();
    auto opts = smallFleet(2);
    opts.serviceTemplate.workers = 1; // keep queues full while we migrate
    ReplicaSet fleet(opts);

    std::vector<serve::SessionId> ids;
    for (count u = 0; u < 12; ++u)
        ids.push_back(fleet.openSession(traj, {}, "user-" + std::to_string(u)));

    // Queue distinct-kind events (nothing coalesces away) on every session,
    // then retire a replica while those queues are still full.
    std::vector<std::future<RequestOutcome>> futures;
    for (const auto id : ids) {
        futures.push_back(fleet.submit(id, SliderEvent::setFrame(1)));
        futures.push_back(fleet.submit(id, SliderEvent::setCutoff(4.8)));
        futures.push_back(fleet.submit(id, SliderEvent::setMeasure(viz::Measure::Degree)));
    }
    ASSERT_TRUE(fleet.scaleDown());
    EXPECT_EQ(fleet.replicaCount(), 1u);
    EXPECT_EQ(fleet.activeSessions(), 12u);

    // Loss-free: every queued future resolves, and none was rejected by
    // the migration itself.
    for (auto& f : futures) EXPECT_TRUE(f.get().accepted());
    fleet.drain();

    // Accounting: per live replica and globally, with the migration
    // counters balancing (everything handed off was adopted).
    for (const auto& snap : fleet.perReplicaMetrics()) expectReplicaInvariant(snap);
    const auto aggregate = fleet.metrics();
    expectReplicaInvariant(aggregate);
    EXPECT_EQ(aggregate.counter("handed_off"), aggregate.counter("adopted"));
    EXPECT_EQ(aggregate.counter("rejected"), 0u);
}

TEST(ReplicaSet, ScaleDownRefusedAtMinReplicas) {
    ReplicaSet fleet(smallFleet(1));
    EXPECT_FALSE(fleet.scaleDown());
    EXPECT_EQ(fleet.replicaCount(), 1u);
}

TEST(ReplicaSet, AggregateMetricsSurviveRetiredReplicas) {
    const auto traj = smallTrajectory();
    ReplicaSet fleet(smallFleet(2));
    std::vector<serve::SessionId> ids;
    for (count u = 0; u < 8; ++u)
        ids.push_back(fleet.openSession(traj, {}, "user-" + std::to_string(u)));
    std::vector<std::future<RequestOutcome>> futures;
    for (const auto id : ids) futures.push_back(fleet.submit(id, SliderEvent::setFrame(2)));
    for (auto& f : futures) f.get();
    fleet.drain();

    const count completedBefore = fleet.metrics().counter("completed");
    ASSERT_TRUE(fleet.scaleDown());
    // The retired replica's history must not vanish from the aggregate.
    EXPECT_GE(fleet.metrics().counter("completed"), completedBefore);

    const auto perReplica = fleet.perReplicaMetrics();
    ASSERT_EQ(perReplica.size(), 1u);
    EXPECT_FALSE(perReplica.front().replica.empty());
    EXPECT_TRUE(fleet.metrics().replica.empty()) << "aggregate must stay unlabeled";
}

TEST(ReplicaSet, ClusterBoundScalingTracksDeployment) {
    auto cluster = cloud::Cluster::paperReferenceCluster(2);
    auto opts = smallFleet(1);
    opts.cluster = &cluster;
    ReplicaSet fleet(opts);
    ASSERT_TRUE(cluster.hasNamespace(opts.clusterNamespace));
    EXPECT_EQ(cluster.deploymentReplicas(opts.clusterNamespace, opts.deploymentName), 1u);

    ASSERT_TRUE(fleet.scaleUp());
    EXPECT_EQ(cluster.deploymentReplicas(opts.clusterNamespace, opts.deploymentName), 2u);
    ASSERT_TRUE(fleet.scaleDown());
    EXPECT_EQ(cluster.deploymentReplicas(opts.clusterNamespace, opts.deploymentName), 1u);
}

TEST(ReplicaSet, ScaleUpRefusedWhenClusterFull) {
    // One worker that fits exactly one paper-sized pod: the second replica
    // has nowhere to go, and the deployment must roll back.
    cloud::Cluster cluster;
    cluster.addNode("m0", cloud::NodeRole::Master, cloud::kPaperControlPlaneNode);
    cluster.addNode("w0", cloud::NodeRole::Worker, cloud::kPaperInstanceLimit);
    auto opts = smallFleet(1);
    opts.cluster = &cluster;
    ReplicaSet fleet(opts);

    EXPECT_FALSE(fleet.scaleUp());
    EXPECT_EQ(fleet.replicaCount(), 1u);
    EXPECT_EQ(cluster.deploymentReplicas(opts.clusterNamespace, opts.deploymentName), 1u);
}

// -- migration wire byte-equivalence ------------------------------------------

struct ClientState {
    std::vector<std::vector<std::array<std::uint16_t, 3>>> qpos;
    std::vector<std::vector<std::uint32_t>> colorIndex;
    std::vector<std::vector<viz::Color>> palette;
    std::vector<std::pair<node, node>> edges;
    std::vector<float> scores;
};

ClientState captureClient(const viz::RinWidget& widget) {
    ClientState s;
    for (const auto& view : widget.wireClient().views()) {
        s.qpos.push_back(view.qpos);
        s.colorIndex.push_back(view.colorIndex);
        s.palette.push_back(view.palette);
    }
    s.edges = widget.wireClient().edges();
    s.scores = widget.wireClient().scores();
    return s;
}

/// Field-by-field equality so a mismatch names the diverging component.
void expectClientEq(const ClientState& got, const ClientState& want,
                    const std::string& where) {
    ASSERT_EQ(got.qpos.size(), want.qpos.size()) << where;
    for (count v = 0; v < got.qpos.size(); ++v) {
        EXPECT_EQ(got.qpos[v], want.qpos[v]) << where << " view " << v << " qpos";
        EXPECT_EQ(got.colorIndex[v], want.colorIndex[v])
            << where << " view " << v << " colorIndex";
        ASSERT_EQ(got.palette[v].size(), want.palette[v].size())
            << where << " view " << v << " palette size";
        for (count c = 0; c < got.palette[v].size(); ++c)
            EXPECT_TRUE(got.palette[v][c] == want.palette[v][c])
                << where << " view " << v << " palette entry " << c;
    }
    EXPECT_EQ(got.edges, want.edges) << where << " edges";
    EXPECT_EQ(got.scores, want.scores) << where << " scores";
}

TEST(ReplicaSet, MigrationResyncsWireStreamByteEquivalently) {
    const auto traj = smallTrajectory();
    viz::RinWidget::Options widgetOpts;
    widgetOpts.wireFormat = viz::WireFormat::Binary;

    const std::vector<SliderEvent> script = {
        SliderEvent::setFrame(1),          SliderEvent::setCutoff(4.8),
        SliderEvent::setMeasure(viz::Measure::Closeness), SliderEvent::setFrame(2),
        SliderEvent::setCutoff(5.2),       SliderEvent::setFrame(3),
    };
    const count migrateAfter = 3;

    // Baseline: the same script on a never-migrated single instance,
    // capturing the decoded client state after every event.
    std::vector<ClientState> baseline;
    {
        SessionService service;
        const auto id = service.openSession(traj, widgetOpts);
        for (const auto& event : script) {
            service.submit(id, event).get();
            baseline.push_back(captureClient(*service.sessionWidget(id)));
        }
    }

    // Replicated run: find a user key that lands on the newest replica (the
    // scale-down victim), play half the script, migrate mid-stream, play
    // the rest.
    auto opts = smallFleet(2);
    ReplicaSet fleet(opts);
    std::string key;
    for (count k = 0; k < 64; ++k) {
        key = "mig-" + std::to_string(k);
        if (fleet.routeOf(key) == 1) break;
    }
    ASSERT_EQ(fleet.routeOf(key), 1u) << "no key routed to the victim replica";

    const auto id = fleet.openSession(traj, widgetOpts, key);
    for (count e = 0; e < migrateAfter; ++e) {
        fleet.submit(id, script[e]).get();
        expectClientEq(captureClient(*fleet.sessionWidget(id)), baseline[e],
                       "pre-migration event " + std::to_string(e));
    }

    ASSERT_TRUE(fleet.scaleDown()); // migrates the session to replica 0

    for (count e = migrateAfter; e < script.size(); ++e) {
        fleet.submit(id, script[e]).get();
        const viz::RinWidget& widget = *fleet.sessionWidget(id);
        if (e == migrateAfter) {
            // The first post-migration frame is the forced resync keyframe.
            EXPECT_TRUE(widget.wireStats().keyframe);
        }
        // The client decodes to exactly the state of the unmigrated run —
        // resync keyframe and subsequent deltas alike.
        expectClientEq(captureClient(widget), baseline[e],
                       "event " + std::to_string(e));
    }
}

// -- concurrency (TSan target) ------------------------------------------------

TEST(ReplicaSet, ConcurrentSubmitsDuringScaling) {
    const auto traj = smallTrajectory();
    auto opts = smallFleet(2);
    ReplicaSet fleet(opts);

    std::vector<serve::SessionId> ids;
    for (count u = 0; u < 8; ++u)
        ids.push_back(fleet.openSession(traj, {}, "user-" + std::to_string(u)));

    constexpr count kThreads = 4;
    constexpr count kPerThread = 24;
    std::vector<std::thread> threads;
    std::vector<count> resolved(kThreads, 0);
    for (count t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (count i = 0; i < kPerThread; ++i) {
                const auto id = ids[(t * kPerThread + i) % ids.size()];
                auto f = i % 3 == 0 ? fleet.submit(id, SliderEvent::setFrame(i % 4))
                         : i % 3 == 1
                             ? fleet.submit(id, SliderEvent::setCutoff(4.5 + 0.1 * (i % 5)))
                             : fleet.submit(id, SliderEvent::refresh());
                f.get(); // every future must resolve, whatever the fleet does
                ++resolved[t];
            }
        });
    }
    // Scale up and down under fire; migrations race the submitters only
    // through the routing lock, never through a dropped future.
    ASSERT_TRUE(fleet.scaleUp());
    ASSERT_TRUE(fleet.scaleDown());
    fleet.tick();
    for (auto& t : threads) t.join();

    for (count t = 0; t < kThreads; ++t) EXPECT_EQ(resolved[t], kPerThread);
    fleet.drain();
    const auto aggregate = fleet.metrics();
    expectReplicaInvariant(aggregate);
    EXPECT_EQ(aggregate.counter("handed_off"), aggregate.counter("adopted"));
}

TEST(ReplicaSet, SloFastBurnFloorsDegradeLadderUntilRecovery) {
    obs::EventLog::global().clearAll();
    const auto traj = smallTrajectory();

    // Compressed SLO clock (timeScale 1e-3: the 5m/1h page pair becomes
    // 0.3s/3.6s) so both fire and recovery happen inside the test without
    // sleeping — recovery comes from good traffic diluting the bad
    // fraction below threshold, not from waiting out the window.
    obs::SloConfig cfg;
    cfg.objectives = {{"latency", obs::SloKind::DeadlineAttainment, 0.99, 0.1}};
    cfg.windows = {{"fast", 300.0, 3600.0, 14.4, obs::SloState::FastBurn}};
    cfg.timeScale = 1e-3;
    auto slo = std::make_shared<obs::SloEngine>(cfg);

    auto opts = smallFleet(2);
    opts.autoscaler.maxReplicas = 2; // pin the fleet: this test is about quality, not size
    opts.serviceTemplate.slo = slo;
    ReplicaSet fleet(opts);
    const auto id = fleet.openSession(traj, {}, "user-0");

    // 20 impossible deadlines: every request completes but blows its
    // budget, so the engine sees a 100% bad fraction (burn 100 >> 14.4).
    for (count i = 0; i < 20; ++i) {
        const auto outcome = fleet.submit(id, SliderEvent::setFrame(i % 4, 1e-6)).get();
        EXPECT_TRUE(outcome.accepted());
        EXPECT_EQ(outcome.sloVerdict, serve::SloVerdict::DeadlineMissed);
    }

    // One controller tick trips the coupling: latency FastBurn floors
    // every replica at Approx and logs the enter edge exactly once.
    fleet.tick();
    EXPECT_TRUE(fleet.sloDegradeActive());
    EXPECT_EQ(obs::EventLog::global().countOf("slo_degrade_enter"), 1u);
    EXPECT_EQ(obs::EventLog::global().countOf("slo_degrade_exit"), 0u);

    // While floored, a healthy request is still served — degraded.
    const auto floored = fleet.submit(id, SliderEvent::setCutoff(5.0)).get();
    EXPECT_EQ(floored.status, serve::RequestStatus::OkDegraded);
    EXPECT_GT(fleet.metrics().counter("slo_degraded"), 0u);

    // Recovery: enough in-budget traffic drops the long-window bad
    // fraction under 14.4% of budget, the objective returns to Healthy,
    // and the floor lifts (hysteresis: exit requires Healthy, not merely
    // not-firing-fast). The generous deadline matters: an undeadlined
    // request is *irrelevant* to the latency objective, not good.
    for (count i = 0; i < 300; ++i)
        EXPECT_TRUE(fleet.submit(id, SliderEvent::setFrame(i % 4, 500.0)).get().accepted());
    fleet.tick();
    EXPECT_FALSE(fleet.sloDegradeActive());
    EXPECT_EQ(obs::EventLog::global().countOf("slo_degrade_exit"), 1u);
    const auto lifted = fleet.submit(id, SliderEvent::setCutoff(4.5)).get();
    EXPECT_EQ(lifted.status, serve::RequestStatus::Ok);

    fleet.drain();
    expectReplicaInvariant(fleet.metrics());
}

// -- load generator -----------------------------------------------------------

TEST(LoadGenerator, SchedulesShapeTheRate) {
    serve::LoadGenOptions o;
    o.baseRatePerSec = 100.0;
    o.durationSec = 10.0;

    o.schedule = serve::LoadSchedule::Constant;
    EXPECT_DOUBLE_EQ(serve::rateAt(o, 5.0), 100.0);

    o.schedule = serve::LoadSchedule::FlashCrowd;
    o.flashMultiplier = 8.0;
    EXPECT_DOUBLE_EQ(serve::rateAt(o, 1.0), 100.0);  // before the flash
    EXPECT_DOUBLE_EQ(serve::rateAt(o, 5.0), 800.0);  // inside [0.4, 0.6)
    EXPECT_DOUBLE_EQ(serve::rateAt(o, 9.0), 100.0);  // after

    o.schedule = serve::LoadSchedule::Diurnal;
    o.diurnalAmplitude = 0.5;
    double lo = 1e9;
    double hi = 0.0;
    for (double t = 0.0; t < 10.0; t += 0.1) {
        lo = std::min(lo, serve::rateAt(o, t));
        hi = std::max(hi, serve::rateAt(o, t));
    }
    EXPECT_NEAR(lo, 50.0, 2.0);
    EXPECT_NEAR(hi, 150.0, 2.0);
}

TEST(LoadGenerator, OpenLoopDrivesARealFleet) {
    const auto traj = smallTrajectory();
    ReplicaSet fleet(smallFleet(2));

    serve::LoadGenOptions o;
    o.baseRatePerSec = 60.0;
    o.durationSec = 0.5;
    o.sessions = 6;
    o.deadlineMs = 500.0;
    serve::LoadGenerator gen(o);

    count ticks = 0;
    const auto report = gen.run(fleet, traj, [&](double) { ++ticks; });

    EXPECT_GT(report.offered, 0u);
    // Open loop: every offered event terminates as a resolved future
    // (coalesced arrivals resolve with the superseding event's outcome).
    EXPECT_EQ(report.offered, report.completed + report.rejected);
    EXPECT_LE(report.coalesced, report.completed);
    EXPECT_GT(ticks, 0u);
    EXPECT_EQ(report.replicasFinal, 2u);
    EXPECT_GT(report.p99Ms, 0.0);
    expectReplicaInvariant(fleet.metrics());
}

// The PR's end-to-end acceptance: one flash-crowd run on a LIVE fleet must
// produce a fully correlated observability story — the burn alert fires,
// the burn signal scales the fleet up, the ops log records the episode,
// deadline-missed requests are retained by the tail sampler, and every
// histogram exemplar in the fleet exposition resolves to a retained trace.
TEST(LoadGenerator, FlashCrowdEndToEndSloCorrelation) {
    obs::EventLog::global().clearAll();
    auto& tracer = obs::Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    tracer.setSampleEvery(0); // tail mode: the serving layer forces every root

    const auto traj = smallTrajectory();

    // Same compressed clock as the ladder test; latency + shed objectives.
    obs::SloConfig cfg;
    cfg.objectives = {{"latency", obs::SloKind::DeadlineAttainment, 0.99, 0.1},
                      {"shed", obs::SloKind::ShedRate, 0.999, 0.1}};
    cfg.windows = {{"fast", 300.0, 3600.0, 14.4, obs::SloState::FastBurn}};
    cfg.timeScale = 1e-3;
    auto slo = std::make_shared<obs::SloEngine>(cfg);
    auto sampler = std::make_shared<obs::TailSampler>();
    sampler->install();

    ReplicaSetOptions opts;
    opts.initialReplicas = 1;
    opts.autoscaler.maxReplicas = 4;
    opts.serviceTemplate.workers = 2;
    opts.serviceTemplate.slo = slo;
    opts.serviceTemplate.tailSampler = sampler;
    ReplicaSet fleet(opts);

    serve::LoadGenOptions o;
    o.schedule = serve::LoadSchedule::FlashCrowd;
    o.baseRatePerSec = 150.0;
    o.flashMultiplier = 6.0;
    o.durationSec = 2.0;
    o.flashBeginFrac = 0.2;
    o.flashEndFrac = 0.7;
    o.sessions = 16;
    // An unmeetable budget: every completion blows its deadline, so the
    // burn is pinned high and the episode is deterministic regardless of
    // how fast this machine executes a chignolin update.
    o.deadlineMs = 0.01;
    o.tickIntervalSec = 0.1;

    serve::LoadGenerator gen(o);
    const auto report = gen.run(fleet, traj, [&](double) { fleet.tick(); });

    // 1. The burn alert fired and the report says so.
    EXPECT_TRUE(report.sloAlertFired);
    EXPECT_GT(report.sloFastBurnPeak, 14.4);
    EXPECT_GE(report.sloStateChanges, 1u);
    EXPECT_LT(report.sloAttainment, 0.5);

    // 2. The burn signal (no queue ever needed to back up) scaled the
    //    fleet, the ops log recorded it, and the report's windowed trace
    //    saw both the overload and the scale-up.
    EXPECT_GT(fleet.replicaCount(), 1u) << "SLO burn signal never scaled the fleet";
    EXPECT_TRUE(report.overloaded) << "no window's p99 blew the deadline";
    EXPECT_GE(report.scaleUps, 1u);
    EXPECT_GT(report.endWindowP99Ms, o.deadlineMs);
    EXPECT_GE(obs::EventLog::global().countOf("autoscale_up"), 1u);

    // 3. The episode's events correlate to traces: at least one logged
    //    event carries a live trace id (the degrade edge is logged from
    //    inside a sampled request).
    bool eventWithTrace = false;
    for (const auto& e : obs::EventLog::global().snapshot())
        if (e.traceId != 0) eventWithTrace = true;
    EXPECT_TRUE(eventWithTrace);

    // 4. Deadline-missed requests were retained with complete span trees.
    const auto stats = sampler->stats();
    EXPECT_GT(stats.retainedDeadlineMiss, 0u);
    EXPECT_GT(report.tracesRetained, 0u);
    for (const auto& tr : sampler->retained()) EXPECT_FALSE(tr.spans.empty());

    // 5. Every exemplar the fleet exposes names a retained trace.
    const auto text = obs::toPrometheusText(fleet.metrics());
    const auto exemplars = obs::parsePrometheusExemplars(text);
    EXPECT_FALSE(exemplars.empty());
    for (const auto& [key, ex] : exemplars)
        EXPECT_TRUE(sampler->isRetained(ex.traceId)) << key << " cites an evicted trace";

    fleet.drain();
    expectReplicaInvariant(fleet.metrics());
    sampler->uninstall();
    tracer.setEnabled(false);
    tracer.setSampleEvery(1);
    tracer.clear();
}

} // namespace
