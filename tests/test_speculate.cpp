// Speculative-precompute suite: the slider Predictor, the widget's
// speculate/adopt cycle (promote-on-match — a hit must be byte-identical
// to the non-speculating path, a miss must change nothing), and the
// serving layer's speculation lifecycle: the accounting
// invariant speculated == spec_hit + spec_miss + spec_cancelled, SLO
// invisibility (zero interactive counters/histogram samples from spec
// work), and the cancellation races scripts/verify.sh --speculate runs
// under -fsanitize=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "src/md/synthetic.hpp"
#include "src/md/trajectory.hpp"
#include "src/serve/load_generator.hpp"
#include "src/serve/metrics.hpp"
#include "src/serve/session_service.hpp"
#include "src/viz/predictor.hpp"
#include "src/viz/widget.hpp"

namespace {

using namespace rinkit;
using serve::RequestOutcome;
using serve::RequestStatus;
using serve::SessionService;
using serve::SliderEvent;
using viz::Prediction;
using viz::Predictor;
using viz::RinWidget;

md::Trajectory smallTrajectory(count frames = 6) {
    md::TrajectoryGenerator::Parameters params;
    params.frames = frames;
    return md::TrajectoryGenerator(params).generate(md::chignolin());
}

const std::function<bool()> kNeverCancel = [] { return false; };

// Lets the service go fully idle: drain() first so every worker tail has
// run (speculation is enqueued *after* a request's future resolves), then
// wait out whatever speculation that scheduled.
void settle(SessionService& service) {
    service.drain();
    service.waitSpeculationIdle();
}

// Every enqueued speculation must end in exactly one judgement bucket.
// Holds once no speculation is queued or awaiting judgement — the tests
// close their sessions (resolving any pending one as cancelled) before
// checking.
void expectSpecInvariant(const serve::MetricsSnapshot& snap) {
    EXPECT_EQ(snap.counter("speculated"),
              snap.counter("spec_hit") + snap.counter("spec_miss") +
                  snap.counter("spec_cancelled"));
}

// ------------------------------------------------------------- Predictor

TEST(Predictor, NoPredictionWithoutHistory) {
    Predictor p;
    EXPECT_EQ(p.predict().kind, Prediction::Kind::None);
    p.observeCutoff(5.0); // one observation: a position, not a direction
    EXPECT_EQ(p.predict().kind, Prediction::Kind::None);
}

TEST(Predictor, MonotoneCutoffContinuation) {
    Predictor p;
    p.observeCutoff(5.0);
    p.observeCutoff(5.1);
    const auto pred = p.predict();
    ASSERT_EQ(pred.kind, Prediction::Kind::Cutoff);
    EXPECT_NEAR(pred.cutoff, 5.2, 1e-9);
}

TEST(Predictor, MonotoneFrameContinuationAndReversal) {
    Predictor::Options o;
    o.frameCount = 100;
    Predictor p(o);
    p.observeFrame(3);
    p.observeFrame(4);
    ASSERT_EQ(p.predict().kind, Prediction::Kind::Frame);
    EXPECT_EQ(p.predict().frame, 5);
    // The user reverses: the model adapts to the new direction.
    p.observeFrame(3);
    ASSERT_EQ(p.predict().kind, Prediction::Kind::Frame);
    EXPECT_EQ(p.predict().frame, 2);
}

TEST(Predictor, LastMovedSliderWins) {
    Predictor::Options o;
    o.frameCount = 100;
    Predictor p(o);
    p.observeFrame(1);
    p.observeFrame(2);
    p.observeCutoff(5.0);
    p.observeCutoff(5.5);
    ASSERT_EQ(p.predict().kind, Prediction::Kind::Cutoff);
    p.observeFrame(3);
    // Frame moved last but its step is stale history — continuation uses
    // the freshest delta on that slider.
    ASSERT_EQ(p.predict().kind, Prediction::Kind::Frame);
    EXPECT_EQ(p.predict().frame, 4);
}

TEST(Predictor, BoundaryPredictsNothing) {
    Predictor::Options o;
    o.frameCount = 4;
    o.minCutoff = 4.0;
    o.maxCutoff = 6.0;
    Predictor p(o);
    p.observeFrame(2);
    p.observeFrame(3); // next would be 4 == frameCount: off the slider
    EXPECT_EQ(p.predict().kind, Prediction::Kind::None);
    p.observeCutoff(5.9);
    p.observeCutoff(6.0); // next would exceed maxCutoff
    EXPECT_EQ(p.predict().kind, Prediction::Kind::None);
}

TEST(Predictor, ResetForgetsHistory) {
    Predictor p;
    p.observeCutoff(5.0);
    p.observeCutoff(5.2);
    ASSERT_NE(p.predict().kind, Prediction::Kind::None);
    p.reset();
    EXPECT_EQ(p.predict().kind, Prediction::Kind::None);
}

// ----------------------------------------------- widget speculate/adopt

// Drives a speculating widget and a plain twin through the same event
// sequence, speculating before each event on the speculating one. After
// every event both widgets must agree exactly: promote-on-match adoption
// is only legal because the speculated artifacts are the ones the real
// path would have produced.
void expectTwinsAgree(const RinWidget& spec, const RinWidget& plain) {
    EXPECT_EQ(spec.graph().numberOfEdges(), plain.graph().numberOfEdges());
    EXPECT_EQ(spec.scores(), plain.scores());
    ASSERT_EQ(spec.maxentLayout().size(), plain.maxentLayout().size());
    for (count i = 0; i < spec.maxentLayout().size(); ++i) {
        EXPECT_EQ(spec.maxentLayout()[i].x, plain.maxentLayout()[i].x) << i;
        EXPECT_EQ(spec.maxentLayout()[i].y, plain.maxentLayout()[i].y) << i;
        EXPECT_EQ(spec.maxentLayout()[i].z, plain.maxentLayout()[i].z) << i;
    }
    // The shipped figure must be byte-identical too — this is what proves
    // the pre-serialized edge traces a hit installs are the exact strings
    // the plain render path would have rebuilt.
    EXPECT_EQ(spec.figureJson(), plain.figureJson());
}

// Monotone cutoff drag over @p traj showing @p measure, speculating before
// every tick on one twin.
void expectCutoffSweepHitsAndMatchesPlainPath(const md::Trajectory& traj,
                                              viz::Measure measure) {
    RinWidget::Options o;
    o.speculate = true;
    o.initialMeasure = measure;
    RinWidget spec(traj, o);
    RinWidget plain(traj, o); // same options; plain just never speculates

    double cutoff = 4.5;
    count hits = 0;
    for (int i = 0; i < 6; ++i) {
        if (spec.predictNext().valid() && spec.speculate(kNeverCancel)) {
            EXPECT_TRUE(spec.speculationPending());
        }
        cutoff += 0.1;
        const auto t = spec.setCutoff(cutoff);
        plain.setCutoff(cutoff);
        if (t.specHit) ++hits;
        expectTwinsAgree(spec, plain);
    }
    // The first tick has no direction to extrapolate; every later tick of
    // a monotone drag is predictable.
    EXPECT_GE(hits, 4u);
}

TEST(WidgetSpeculation, MonotoneCutoffSweepHitsAndMatchesPlainPath) {
    expectCutoffSweepHitsAndMatchesPlainPath(smallTrajectory(), viz::Measure::Closeness);
}

TEST(WidgetSpeculation, MonotoneCutoffSweepHitsAndMatchesPlainPathBetweenness) {
    // A hit installs computeMeasure scores; a miss serves the engine's.
    // Both must be the same bits. Villin (35 residues) keeps Brandes on one
    // thread, so two exact runs sum in the same order.
    md::TrajectoryGenerator::Parameters params;
    params.frames = 2;
    expectCutoffSweepHitsAndMatchesPlainPath(
        md::TrajectoryGenerator(params).generate(md::villinHeadpiece()),
        viz::Measure::Betweenness);
}

TEST(WidgetSpeculation, MonotoneFrameSweepHitsAndMatchesPlainPath) {
    const auto traj = smallTrajectory(6);
    RinWidget::Options o;
    o.speculate = true;
    RinWidget spec(traj, o);
    RinWidget plain(traj, o);

    count hits = 0;
    for (rinkit::index f = 1; f < 6; ++f) {
        if (spec.predictNext().valid() && spec.speculate(kNeverCancel)) {
            EXPECT_TRUE(spec.speculationPending());
        }
        const auto t = spec.setFrame(f);
        plain.setFrame(f);
        if (t.specHit) ++hits;
        expectTwinsAgree(spec, plain);
    }
    EXPECT_GE(hits, 3u);
}

TEST(WidgetSpeculation, HitServesMeasureFromCacheWithoutRecompute) {
    const auto traj = smallTrajectory();
    RinWidget::Options o;
    o.speculate = true;
    RinWidget w(traj, o);
    w.setCutoff(5.0);
    w.setCutoff(5.1);
    ASSERT_TRUE(w.speculate(kNeverCancel));
    const auto t = w.setCutoff(5.2);
    ASSERT_TRUE(t.specJudged);
    ASSERT_TRUE(t.specHit);
    // The adopted scores were stored into the exact result cache under the
    // new graph version — the measure phase is a cache hit, not a second
    // insert/recompute.
    EXPECT_TRUE(t.measureCacheHit);
    EXPECT_EQ(t.measureTier, viz::ResolutionTier::Exact);
}

TEST(WidgetSpeculation, WrongPredictionIsAMissAndChangesNothing) {
    const auto traj = smallTrajectory();
    RinWidget::Options o;
    o.speculate = true;
    RinWidget spec(traj, o);
    RinWidget plain(traj, o);

    // Build an upward drag, speculate +0.1, then reverse.
    spec.setCutoff(5.0);
    plain.setCutoff(5.0);
    spec.setCutoff(5.1);
    plain.setCutoff(5.1);
    ASSERT_TRUE(spec.speculate(kNeverCancel));
    const auto t = spec.setCutoff(4.9); // reversal: speculation was for 5.2
    plain.setCutoff(4.9);
    EXPECT_TRUE(t.specJudged);
    EXPECT_FALSE(t.specHit);
    EXPECT_FALSE(spec.speculationPending());
    expectTwinsAgree(spec, plain);
}

TEST(WidgetSpeculation, RefreshJudgesPendingSpeculationAMiss) {
    const auto traj = smallTrajectory();
    RinWidget::Options o;
    o.speculate = true;
    RinWidget w(traj, o);
    w.setCutoff(5.0);
    w.setCutoff(5.1);
    ASSERT_TRUE(w.speculate(kNeverCancel));
    ASSERT_TRUE(w.speculationPending());
    const auto t = w.refresh();
    EXPECT_TRUE(t.specJudged);
    EXPECT_FALSE(t.specHit);
    EXPECT_FALSE(w.speculationPending());
    // Refresh also resets the predictor: no stale direction survives.
    EXPECT_EQ(w.predictNext().kind, Prediction::Kind::None);
}

TEST(WidgetSpeculation, CancelledSpeculationLeavesNoPendingState) {
    const auto traj = smallTrajectory();
    RinWidget::Options o;
    o.speculate = true;
    RinWidget w(traj, o);
    w.setCutoff(5.0);
    w.setCutoff(5.1);
    EXPECT_FALSE(w.speculate([] { return true; })); // cancelled immediately
    EXPECT_FALSE(w.speculationPending());
    const auto t = w.setCutoff(5.2); // runs the ordinary path
    EXPECT_FALSE(t.specHit);
}

TEST(WidgetSpeculation, MeasureSwitchAfterSpeculationStillAdoptsGraphAndLayout) {
    const auto traj = smallTrajectory();
    RinWidget::Options o;
    o.speculate = true;
    RinWidget spec(traj, o);
    RinWidget plain(traj, o);
    spec.setCutoff(5.0);
    plain.setCutoff(5.0);
    spec.setCutoff(5.1);
    plain.setCutoff(5.1);
    ASSERT_TRUE(spec.speculate(kNeverCancel));
    // The user flips the measure before the predicted tick: a measure
    // event does not move the graph, so the speculation stays pending;
    // only its measure slot is stale.
    spec.setMeasure(viz::Measure::Betweenness);
    plain.setMeasure(viz::Measure::Betweenness);
    EXPECT_TRUE(spec.speculationPending());
    const auto t = spec.setCutoff(5.2);
    plain.setCutoff(5.2);
    EXPECT_TRUE(t.specJudged);
    EXPECT_TRUE(t.specHit);
    // The speculated Closeness scores must NOT have been promoted into
    // the Betweenness results: both widgets agree on the recomputed ones.
    expectTwinsAgree(spec, plain);
}

// ----------------------------------------------- service spec lifecycle

TEST(ServiceSpeculation, PacedMonotoneDragHitsAndKeepsInvariant) {
    const auto traj = smallTrajectory();
    SessionService service;
    RinWidget::Options wo;
    wo.speculate = true;
    const auto id = service.openSession(traj, wo);

    double cutoff = 4.5;
    for (int i = 0; i < 8; ++i) {
        cutoff += 0.1;
        const auto outcome = service.submit(id, SliderEvent::setCutoff(cutoff)).get();
        EXPECT_EQ(outcome.status, RequestStatus::Ok);
        // Paced client: the service goes idle between ticks, so every
        // speculation it schedules runs to completion before the next
        // submit judges it.
        settle(service);
    }

    service.closeSession(id); // resolves the final unjudged speculation
    const auto snap = service.metrics();
    EXPECT_GE(snap.counter("speculated"), 5u);
    EXPECT_GE(snap.counter("spec_hit"), 5u);
    expectSpecInvariant(snap);
    // Interactive accounting is untouched by speculation.
    EXPECT_EQ(snap.counter("submitted"), 8u);
    EXPECT_EQ(snap.counter("completed"), 8u);
}

TEST(ServiceSpeculation, SpeculationInvisibleToInteractiveAccounting) {
    const auto traj = smallTrajectory();
    SessionService service;
    RinWidget::Options wo;
    wo.speculate = true;
    const auto id = service.openSession(traj, wo);

    const count events = 6;
    double cutoff = 4.5;
    for (count i = 0; i < events; ++i) {
        cutoff += 0.1;
        service.submit(id, SliderEvent::setCutoff(cutoff)).get();
        settle(service);
    }

    const auto snap = service.metrics();
    ASSERT_GT(snap.counter("speculated"), 0u);
    // Zero speculative requests in admission/SLO accounting: the
    // submitted/completed ledger and the interactive latency histogram
    // count exactly the real events. Speculative CPU lands in its own
    // speculate_ms histogram.
    EXPECT_EQ(snap.counter("submitted"), events);
    EXPECT_EQ(snap.counter("completed"), events);
    EXPECT_EQ(snap.counter("rejected"), 0u);
    EXPECT_EQ(snap.histograms.at("server_ms").samples, events);
    EXPECT_EQ(snap.histograms.at("queue_ms").samples, events);
    EXPECT_GT(snap.histograms.at("speculate_ms").samples, 0u);
}

TEST(ServiceSpeculation, BurstSubmissionsCancelSpeculationsUnderRace) {
    // TSan target: real submits racing the speculation task.
    // Interleaving-dependent — only the invariants are asserted.
    const auto traj = smallTrajectory();
    SessionService::Options so;
    so.workers = 2;
    SessionService service(so);
    RinWidget::Options wo;
    wo.speculate = true;
    const auto id = service.openSession(traj, wo);

    std::vector<std::future<RequestOutcome>> futures;
    double cutoff = 4.5;
    for (int burst = 0; burst < 10; ++burst) {
        for (int i = 0; i < 3; ++i) {
            cutoff += 0.1;
            futures.push_back(service.submit(id, SliderEvent::setCutoff(cutoff)));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (auto& f : futures) f.get();
    settle(service);
    service.closeSession(id);

    const auto snap = service.metrics();
    expectSpecInvariant(snap);
    EXPECT_EQ(snap.counter("submitted"), futures.size());
    // Each submission ends in exactly one interactive bucket, regardless
    // of how speculation interleaved.
    EXPECT_EQ(snap.counter("submitted"),
              snap.counter("completed") + snap.counter("coalesced") +
                  snap.counter("rejected"));
}

TEST(ServiceSpeculation, ManySessionsRacingSpeculation) {
    // TSan target: several sessions' speculations sharing the pool's
    // queue and the service's one cancel token while interactive work
    // streams in.
    const auto traj = smallTrajectory();
    SessionService::Options so;
    so.workers = 4;
    SessionService service(so);
    RinWidget::Options wo;
    wo.speculate = true;

    std::vector<serve::SessionId> ids;
    for (int s = 0; s < 4; ++s) ids.push_back(service.openSession(traj, wo));

    std::vector<std::thread> clients;
    for (int s = 0; s < 4; ++s) {
        clients.emplace_back([&service, &ids, s] {
            double cutoff = 4.5 + 0.05 * s;
            for (int i = 0; i < 8; ++i) {
                cutoff += 0.1;
                service.submit(ids[static_cast<size_t>(s)], SliderEvent::setCutoff(cutoff)).get();
            }
        });
    }
    for (auto& t : clients) t.join();
    settle(service);
    for (const auto id : ids) service.closeSession(id);
    expectSpecInvariant(service.metrics());
}

TEST(ServiceSpeculation, CloseSessionResolvesPendingSpeculation) {
    const auto traj = smallTrajectory();
    SessionService service;
    RinWidget::Options wo;
    wo.speculate = true;
    const auto id = service.openSession(traj, wo);

    double cutoff = 4.5;
    for (int i = 0; i < 3; ++i) {
        cutoff += 0.1;
        service.submit(id, SliderEvent::setCutoff(cutoff)).get();
        settle(service);
    }
    // A completed speculation is pending judgement; closing the session
    // must resolve it (cancelled), not leak it.
    service.closeSession(id);
    service.waitSpeculationIdle();
    expectSpecInvariant(service.metrics());
}

TEST(ServiceSpeculation, ShutdownResolvesEverything) {
    const auto traj = smallTrajectory();
    auto service = std::make_unique<SessionService>();
    RinWidget::Options wo;
    wo.speculate = true;
    const auto id = service->openSession(traj, wo);
    double cutoff = 4.5;
    for (int i = 0; i < 3; ++i) {
        cutoff += 0.1;
        service->submit(id, SliderEvent::setCutoff(cutoff)).get();
        settle(*service); // nothing queued when shutdown hits
    }
    service->shutdown(); // resolves the pending speculation as cancelled
    const auto snap = service->metrics();
    service.reset();
    expectSpecInvariant(snap);
}

TEST(ServiceSpeculation, ExtractedSessionDropsSpeculationButKeepsState) {
    const auto traj = smallTrajectory();
    SessionService source, target;
    RinWidget::Options wo;
    wo.speculate = true;
    const auto id = source.openSession(traj, wo);
    double cutoff = 4.5;
    for (int i = 0; i < 3; ++i) {
        cutoff += 0.1;
        source.submit(id, SliderEvent::setCutoff(cutoff)).get();
        settle(source);
    }

    // Migration: the speculation's accounting stays on the source replica
    // (resolved cancelled); the widget state migrates clean.
    auto detached = source.extractSession(id);
    expectSpecInvariant(source.metrics());
    const auto newId = target.adoptSession(std::move(detached));
    const auto outcome = target.submit(newId, SliderEvent::setCutoff(cutoff + 0.1)).get();
    EXPECT_EQ(outcome.status, RequestStatus::Ok);
    EXPECT_FALSE(outcome.timing.specHit); // nothing pending migrated
    settle(target);
    target.closeSession(newId);
    expectSpecInvariant(target.metrics());
}

TEST(ServiceSpeculation, DisabledWidgetNeverSpeculates) {
    const auto traj = smallTrajectory();
    SessionService service;
    const auto id = service.openSession(traj); // speculate defaults off
    double cutoff = 4.5;
    for (int i = 0; i < 4; ++i) {
        cutoff += 0.1;
        service.submit(id, SliderEvent::setCutoff(cutoff)).get();
        settle(service);
    }
    const auto snap = service.metrics();
    EXPECT_EQ(snap.counter("speculated"), 0u);
    EXPECT_EQ(snap.counter("spec_hit"), 0u);
}

// -------------------------------------------- load generator drag model

TEST(LoadGenerator, MonotoneDragProducesHitsEndToEnd) {
    // The drag schedule is what the speculative path is built for: driving
    // it through a real endpoint must produce a healthy hit counter while
    // every accounting invariant holds.
    const auto traj = smallTrajectory();
    serve::LoadGenOptions o;
    o.eventModel = serve::LoadEventModel::MonotoneDrag;
    o.baseRatePerSec = 120.0;
    o.durationSec = 0.5;
    o.sessions = 2;
    o.frames = traj.frameCount();
    o.deadlineMs = 0.0;
    serve::LoadGenerator gen(o);
    RinWidget::Options wo;
    wo.speculate = true;
    gen.setWidgetOptions(wo);

    SessionService service;
    const auto report = gen.run(service, traj);
    settle(service);
    EXPECT_GT(report.offered, 0u);

    const auto snap = service.metrics();
    expectSpecInvariant(snap);
    // Open-loop pacing means some speculations get cancelled by the next
    // arrival — but the schedule is predictable, so some must also land.
    EXPECT_GT(snap.counter("speculated"), 0u);
}

} // namespace
