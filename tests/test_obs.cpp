// Observability suite: span-tree integrity, context propagation across
// ThreadPool and SessionService thread boundaries, head sampling (and the
// always-sample-on-deadline-miss escape hatch), ring-buffer overwrite, and
// the exporters — Chrome trace JSON round-trips through the in-repo JSON
// parser, Prometheus exposition round-trips through parsePrometheusText.
// `ctest -L obs` runs this suite; scripts/verify.sh --obs adds TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/cloud/cluster.hpp"
#include "src/cloud/gateway.hpp"
#include "src/cloud/jupyterhub.hpp"
#include "src/md/synthetic.hpp"
#include "src/md/trajectory.hpp"
#include "src/obs/event_log.hpp"
#include "src/obs/exporters.hpp"
#include "src/obs/slo.hpp"
#include "src/obs/tail_sampler.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/metrics.hpp"
#include "src/serve/session_service.hpp"
#include "src/support/json.hpp"
#include "src/support/thread_pool.hpp"
#include "src/viz/widget.hpp"

namespace {

using namespace rinkit;
using obs::ScopedSpan;
using obs::SpanRecord;
using obs::Tracer;

/// Every test drives the process-global tracer; reset it on both sides so
/// suites do not observe each other's spans or sampling policy.
class ObsTest : public ::testing::Test {
protected:
    void SetUp() override {
        auto& t = Tracer::global();
        t.setEnabled(true);
        t.setSampleEvery(1);
        t.clear();
    }
    void TearDown() override {
        auto& t = Tracer::global();
        t.setEnabled(false);
        t.setSampleEvery(1);
        t.clear();
    }
};

md::Trajectory tinyTrajectory(count frames = 3) {
    md::TrajectoryGenerator::Parameters params;
    params.frames = frames;
    return md::TrajectoryGenerator(params).generate(md::chignolin());
}

// Large enough that one update cycle takes milliseconds, so a second
// submission reliably queues behind the first.
md::Trajectory slowTrajectory() {
    md::TrajectoryGenerator::Parameters params;
    params.frames = 3;
    return md::TrajectoryGenerator(params).generate(md::helixBundle(200));
}

const SpanRecord* findSpan(const std::vector<SpanRecord>& spans, std::string_view name) {
    for (const auto& s : spans)
        if (s.name == name) return &s;
    return nullptr;
}

double numAttrOr(const SpanRecord& s, std::string_view key, double fallback) {
    for (const auto& a : s.attrs)
        if (!a.isString && a.key == key) return a.num;
    return fallback;
}

/// Structural invariants of one trace: exactly one root, every parent id
/// resolves to a span of the same trace, and following parents always
/// reaches the root (connected, acyclic).
void expectConnectedTree(const std::vector<SpanRecord>& spans, std::uint64_t traceId) {
    std::map<std::uint64_t, const SpanRecord*> byId;
    std::uint64_t rootId = 0;
    count roots = 0;
    for (const auto& s : spans) {
        if (s.traceId != traceId) continue;
        EXPECT_TRUE(byId.emplace(s.spanId, &s).second) << "duplicate span id";
        if (s.parentId == 0) {
            ++roots;
            rootId = s.spanId;
        }
    }
    EXPECT_EQ(roots, 1u) << "trace must have exactly one root";
    for (const auto& [id, span] : byId) {
        std::uint64_t cursor = id;
        std::set<std::uint64_t> visited;
        while (cursor != rootId) {
            ASSERT_TRUE(visited.insert(cursor).second) << "cycle in span tree";
            const auto it = byId.find(cursor);
            ASSERT_NE(it, byId.end()) << "span " << cursor << " unreachable from root";
            cursor = it->second->parentId;
            if (cursor == 0) break; // root reached via parentId
        }
    }
}

TEST_F(ObsTest, NestedScopesFormOneTree) {
    {
        ScopedSpan root("unit.root");
        {
            ScopedSpan child("unit.child");
            ScopedSpan grandchild("unit.grandchild");
        }
        ScopedSpan sibling("unit.sibling");
    }
    const auto spans = Tracer::global().collect();
    ASSERT_EQ(spans.size(), 4u);

    const auto* root = findSpan(spans, "unit.root");
    const auto* child = findSpan(spans, "unit.child");
    const auto* grandchild = findSpan(spans, "unit.grandchild");
    const auto* sibling = findSpan(spans, "unit.sibling");
    ASSERT_TRUE(root && child && grandchild && sibling);

    EXPECT_EQ(root->parentId, 0u);
    EXPECT_EQ(child->parentId, root->spanId);
    EXPECT_EQ(grandchild->parentId, child->spanId);
    EXPECT_EQ(sibling->parentId, root->spanId);
    for (const auto* s : {child, grandchild, sibling})
        EXPECT_EQ(s->traceId, root->traceId);
    expectConnectedTree(spans, root->traceId);

    // Children are contained in their parent's interval (same clock).
    EXPECT_GE(child->startUs, root->startUs);
    EXPECT_LE(child->endUs, root->endUs);
    EXPECT_GE(grandchild->startUs, child->startUs);
    EXPECT_LE(grandchild->endUs, child->endUs);
}

TEST_F(ObsTest, FinishMsMatchesRecordedDuration) {
    ScopedSpan span("unit.timed");
    const double ms = span.finishMs();
    const auto spans = Tracer::global().collect();
    ASSERT_EQ(spans.size(), 1u);
    // finishMs is the single pair of clock reads: the record must agree
    // exactly — this is what makes UpdateTiming "derived from spans".
    EXPECT_DOUBLE_EQ(spans[0].durationMs(), ms);
    EXPECT_DOUBLE_EQ(span.finishMs(), ms) << "finishMs must be idempotent";
}

TEST_F(ObsTest, AttributesAreRecorded) {
    {
        ScopedSpan span("unit.attrs");
        span.attr("cache_hit", true);
        span.attr("frontier_size", count{42});
        span.attr("phase", "layout");
    }
    const auto spans = Tracer::global().collect();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_DOUBLE_EQ(numAttrOr(spans[0], "cache_hit", -1.0), 1.0);
    EXPECT_DOUBLE_EQ(numAttrOr(spans[0], "frontier_size", -1.0), 42.0);
    bool sawPhase = false;
    for (const auto& a : spans[0].attrs)
        if (a.isString && a.key == "phase" && a.str == "layout") sawPhase = true;
    EXPECT_TRUE(sawPhase);
}

TEST_F(ObsTest, ContextPropagatesAcrossThreadPool) {
    std::uint64_t rootTrace = 0, rootSpan = 0;
    {
        ScopedSpan root("unit.submit_side");
        rootTrace = root.context().traceId;
        rootSpan = root.context().spanId;
        std::promise<void> done;
        ThreadPool pool(2);
        pool.submit([&done] {
            ScopedSpan worker("unit.worker_side");
            done.set_value();
        });
        done.get_future().wait();
    }
    const auto spans = Tracer::global().collect();
    const auto* worker = findSpan(spans, "unit.worker_side");
    ASSERT_NE(worker, nullptr);
    // The worker span joined the submitter's trace across the queue hop...
    EXPECT_EQ(worker->traceId, rootTrace);
    EXPECT_EQ(worker->parentId, rootSpan);
    // ...and really ran on another thread (distinct export track).
    const auto* root = findSpan(spans, "unit.submit_side");
    ASSERT_NE(root, nullptr);
    EXPECT_NE(worker->tid, root->tid);
    expectConnectedTree(spans, rootTrace);
}

TEST_F(ObsTest, HeadSamplingKeepsEveryNth) {
    Tracer::global().setSampleEvery(3);
    for (int i = 0; i < 9; ++i) ScopedSpan span("unit.sampled_root");
    const auto spans = Tracer::global().collect();
    EXPECT_EQ(spans.size(), 3u);
}

TEST_F(ObsTest, RingBufferKeepsMostRecentSpans) {
    auto& tracer = Tracer::global();
    tracer.setRingCapacity(16);
    for (int i = 0; i < 100; ++i) {
        ScopedSpan span("unit.ring");
        span.attr("i", static_cast<double>(i));
    }
    const auto spans = tracer.collect();
    ASSERT_EQ(spans.size(), 16u);
    // Oldest entries were overwritten: only the tail survives, in order.
    for (std::size_t k = 0; k < spans.size(); ++k)
        EXPECT_DOUBLE_EQ(numAttrOr(spans[k], "i", -1.0), static_cast<double>(84 + k));
    tracer.setRingCapacity(8192);
}

TEST_F(ObsTest, DisabledTracerRecordsNothingButStillTimes) {
    Tracer::global().setEnabled(false);
    ScopedSpan span("unit.dark");
    EXPECT_GE(span.finishMs(), 0.0);
    EXPECT_TRUE(Tracer::global().collect().empty());
}

TEST_F(ObsTest, WidgetUpdateTimingIsDerivedFromSpans) {
    const auto traj = tinyTrajectory();
    viz::RinWidget widget(traj);
    Tracer::global().clear(); // drop construction-time spans

    const auto t = widget.setCutoff(6.0);
    const auto spans = Tracer::global().collect();
    const auto* root = findSpan(spans, "widget.set_cutoff");
    ASSERT_NE(root, nullptr);
    expectConnectedTree(spans, root->traceId);

    const auto* layout = findSpan(spans, "widget.layout");
    const auto* measure = findSpan(spans, "widget.measure");
    const auto* serialize = findSpan(spans, "widget.serialize");
    const auto* network = findSpan(spans, "widget.network_update");
    ASSERT_TRUE(layout && measure && serialize && network);
    // Identical clock reads, not merely close: the timing struct is filled
    // from ScopedSpan::finishMs.
    EXPECT_DOUBLE_EQ(layout->durationMs(), t.layoutMs);
    EXPECT_DOUBLE_EQ(measure->durationMs(), t.measureMs);
    EXPECT_DOUBLE_EQ(serialize->durationMs(), t.serializeMs);
    EXPECT_DOUBLE_EQ(network->durationMs(), t.networkUpdateMs);

    // Phase spans partition the root: their sum cannot exceed it, and the
    // phases the timing struct reports account for most of it.
    const double phaseSum = obs::spanTotalMs(spans, "widget.network_update") +
                            obs::spanTotalMs(spans, "widget.layout") +
                            obs::spanTotalMs(spans, "widget.measure") +
                            obs::spanTotalMs(spans, "widget.scene_build") +
                            obs::spanTotalMs(spans, "widget.serialize");
    EXPECT_LE(phaseSum, root->durationMs() + 1e-6);
    EXPECT_NEAR(phaseSum, t.serverMs(), 1e-9);
}

TEST_F(ObsTest, ColdLayoutEmitsHierarchyAttrsAndLevelSpans) {
    // Construction runs the cold multilevel V-cycle (200 residues is well
    // above the coarsest-size threshold, so the hierarchy is non-trivial).
    const auto traj = slowTrajectory();
    viz::RinWidget widget(traj);

    auto spans = Tracer::global().collect();
    const auto* layout = findSpan(spans, "widget.layout");
    ASSERT_NE(layout, nullptr);
    EXPECT_DOUBLE_EQ(numAttrOr(*layout, "warm_start", -1.0), 0.0);
    EXPECT_GT(numAttrOr(*layout, "iterations_done", 0.0), 0.0);
    EXPECT_NE(numAttrOr(*layout, "converged", -1.0), -1.0);
    const double levels = numAttrOr(*layout, "levels", 0.0);
    EXPECT_GE(levels, 2.0) << "200 residues must coarsen at least once";
    const double coarsest = numAttrOr(*layout, "coarsest_nodes", 0.0);
    EXPECT_GT(coarsest, 0.0);
    EXPECT_LT(coarsest, 200.0);

    // One child span per V-cycle level, all inside the layout span's trace.
    count levelSpans = 0;
    for (const auto& s : spans) {
        if (s.name != "layout.level") continue;
        ++levelSpans;
        EXPECT_EQ(s.traceId, layout->traceId);
        EXPECT_EQ(s.parentId, layout->spanId);
        EXPECT_GE(numAttrOr(s, "nodes", 0.0), 1.0);
        EXPECT_GE(numAttrOr(s, "iterations", -1.0), 0.0);
    }
    EXPECT_EQ(static_cast<double>(levelSpans), levels);

    // A warm slider move takes the capped single-level polish: no
    // hierarchy, and the attrs say so.
    Tracer::global().clear();
    widget.setCutoff(5.5);
    spans = Tracer::global().collect();
    const auto* warm = findSpan(spans, "widget.layout");
    ASSERT_NE(warm, nullptr);
    EXPECT_DOUBLE_EQ(numAttrOr(*warm, "warm_start", -1.0), 1.0);
    EXPECT_DOUBLE_EQ(numAttrOr(*warm, "levels", -1.0), 1.0);
    EXPECT_GT(numAttrOr(*warm, "iterations_done", 0.0), 0.0);
}

TEST_F(ObsTest, SessionServiceRequestFormsOneCrossThreadTree) {
    const auto traj = tinyTrajectory();
    serve::SessionService service;
    const auto session = service.openSession(traj);
    service.drain();
    Tracer::global().clear(); // keep only the one request under test

    auto future = service.submit(session, serve::SliderEvent::setCutoff(6.5));
    const auto outcome = future.get();
    service.drain();
    EXPECT_TRUE(outcome.accepted());

    const auto spans = Tracer::global().collect();
    const auto* root = findSpan(spans, "serve.request");
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->parentId, 0u);
    expectConnectedTree(spans, root->traceId);

    // The request's lifecycle spans all joined the root's trace.
    std::set<std::uint32_t> tids;
    count inTrace = 0;
    for (const char* name : {"serve.enqueue", "serve.queue_wait", "serve.execute",
                             "widget.set_cutoff", "widget.layout"}) {
        const auto* s = findSpan(spans, name);
        ASSERT_NE(s, nullptr) << name;
        EXPECT_EQ(s->traceId, root->traceId) << name;
        ++inTrace;
        tids.insert(s->tid);
    }
    EXPECT_EQ(inTrace, 5u);
    // Submitted on this thread, executed on a worker: the one tree spans
    // at least two threads.
    EXPECT_GE(tids.size(), 2u);

    // Exporter round-trip: the Chrome trace parses with the in-repo JSON
    // parser and carries one complete event per span plus per-thread
    // metadata, and the execute phase fits inside the request total.
    const std::string json = obs::toChromeTraceJson(spans);
    const auto parsed = JsonValue::parse(json);
    EXPECT_EQ(parsed.at("displayTimeUnit").asString(), "ms");
    const auto& events = parsed.at("traceEvents");
    std::set<std::uint32_t> allTids;
    for (const auto& s : spans) allTids.insert(s.tid);
    ASSERT_EQ(events.size(), spans.size() + allTids.size());
    double requestDurUs = 0.0, executeDurUs = 0.0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto& e = events.at(i);
        if (e.at("ph").asString() != "X") continue;
        if (e.at("name").asString() == "serve.request") requestDurUs = e.at("dur").asNumber();
        if (e.at("name").asString() == "serve.execute") executeDurUs = e.at("dur").asNumber();
    }
    EXPECT_GT(executeDurUs, 0.0);
    EXPECT_LE(executeDurUs, requestDurUs + 1.0);
}

TEST_F(ObsTest, DeadlineMissForcesSamplingWhenHeadSaysNo) {
    Tracer::global().setSampleEvery(0); // head sampling keeps nothing...
    const auto traj = slowTrajectory();
    serve::SessionService service;
    const auto session = service.openSession(traj);
    service.drain();
    Tracer::global().clear();

    // The frame switch occupies the session; the cutoff event queues
    // behind it and blows its microscopic deadline.
    auto first = service.submit(session, serve::SliderEvent::setFrame(1));
    auto second = service.submit(session, serve::SliderEvent::setCutoff(7.5, 1e-6));
    first.get();
    const auto outcome = second.get();
    service.drain();
    ASSERT_TRUE(outcome.accepted());
    ASSERT_TRUE(outcome.deadlineMissed);

    const auto spans = Tracer::global().collect();
    // ...but the deadline-missed request is force-sampled from dequeue on:
    // its root, queue wait, and execution are all present.
    const auto* root = findSpan(spans, "serve.request");
    ASSERT_NE(root, nullptr);
    EXPECT_DOUBLE_EQ(numAttrOr(*root, "deadline_missed", 0.0), 1.0);
    EXPECT_NE(findSpan(spans, "serve.queue_wait"), nullptr);
    EXPECT_NE(findSpan(spans, "serve.execute"), nullptr);
    // The submit-side enqueue span predates the sampling flip and is the
    // one (documented) casualty.
    EXPECT_EQ(findSpan(spans, "serve.enqueue"), nullptr);
}

TEST_F(ObsTest, CoalescedSubmissionRecordsAbsorptionEvent) {
    const auto traj = slowTrajectory();
    serve::SessionService service;
    const auto session = service.openSession(traj);
    service.drain();
    Tracer::global().clear();

    // Occupy the session, then queue two cutoff events: the second
    // coalesces into the first's slot (latest wins).
    auto busy = service.submit(session, serve::SliderEvent::setFrame(1));
    auto stale = service.submit(session, serve::SliderEvent::setCutoff(5.0));
    auto fresh = service.submit(session, serve::SliderEvent::setCutoff(7.5));
    busy.get();
    const auto staleOutcome = stale.get();
    const auto freshOutcome = fresh.get();
    service.drain();
    EXPECT_TRUE(staleOutcome.accepted());
    EXPECT_EQ(freshOutcome.coalescedEvents, 1u);

    const auto spans = Tracer::global().collect();
    const auto* coalesce = findSpan(spans, "serve.coalesce");
    ASSERT_NE(coalesce, nullptr);
    EXPECT_DOUBLE_EQ(numAttrOr(*coalesce, "absorbed", 0.0), 1.0);
}

TEST_F(ObsTest, PrometheusExpositionRoundTrips) {
    serve::MetricsRegistry registry;
    // A phase name exercising every escape the exposition format defines
    // (backslash, quote, newline) — jsonEscape handles all three.
    const std::string phase = "server\"quoted\\slash\nnewline_ms";
    registry.recordLatency(phase, 12.0);
    registry.recordLatency(phase, 30.0);
    registry.recordLatency("server_ms", 5.0);
    registry.increment("completed", 3);
    registry.gaugeQueueDepth(4);
    const auto snap = registry.snapshot();

    const std::string text = obs::toPrometheusText(snap);
    const auto samples = obs::parsePrometheusText(text);

    const auto& stats = snap.histograms.at(phase);
    const std::string key = "rinkit_phase_latency_ms{phase=\"" + obs::promEscape(phase) + "\"";
    EXPECT_DOUBLE_EQ(samples.at(key + ",quantile=\"0.5\"}"), stats.p50Ms);
    EXPECT_DOUBLE_EQ(samples.at(key + ",quantile=\"0.95\"}"), stats.p95Ms);
    EXPECT_DOUBLE_EQ(samples.at(key + ",quantile=\"0.99\"}"), stats.p99Ms);
    EXPECT_DOUBLE_EQ(samples.at("rinkit_phase_latency_ms_count{phase=\"" +
                                obs::promEscape(phase) + "\"}"),
                     2.0);
    EXPECT_DOUBLE_EQ(samples.at("rinkit_phase_latency_ms_sum{phase=\"" +
                                obs::promEscape(phase) + "\"}"),
                     stats.meanMs * 2.0);
    EXPECT_DOUBLE_EQ(samples.at("rinkit_events_total{event=\"completed\"}"), 3.0);
    EXPECT_DOUBLE_EQ(samples.at("rinkit_queue_depth"), 4.0);
    EXPECT_DOUBLE_EQ(samples.at("rinkit_queue_depth_max"), 4.0);

    EXPECT_THROW(obs::parsePrometheusText("no_value_here\n"), std::runtime_error);
}

TEST_F(ObsTest, MetricsScrapeThroughHubIngressAndGateway) {
    const auto traj = tinyTrajectory();
    auto cluster = cloud::Cluster::paperReferenceCluster();
    cloud::JupyterHub hub(cluster);
    serve::SessionService service;
    hub.attachService(service, traj);

    ASSERT_TRUE(hub.login("ada"));
    auto future = hub.routeUserRequest("ada", "10.0.0.7", serve::SliderEvent::refresh());
    ASSERT_TRUE(future.has_value());
    future->get();
    service.drain();

    // No gateway attached: the scrape resolves through the ingress alone.
    const auto body = hub.scrapeMetrics("10.0.0.9");
    ASSERT_TRUE(body.has_value());
    const auto samples = obs::parsePrometheusText(*body);
    EXPECT_GE(samples.at("rinkit_events_total{event=\"completed\"}"), 1.0);

    // With a gateway, the ACL decides: scrapers outside the allowed prefix
    // get nothing (and the denial is accounted as dropped egress).
    cloud::Gateway gateway;
    gateway.addRule({cloud::Gateway::Action::Allow, "10.0.", 443, "prometheus"});
    hub.attachGateway(gateway);
    EXPECT_TRUE(hub.scrapeMetrics("10.0.0.9").has_value());
    EXPECT_FALSE(hub.scrapeMetrics("203.0.113.5").has_value());
    EXPECT_GT(gateway.allowedBytes(), 0u);
    EXPECT_GT(gateway.defaultDeniedBytes(), 0u);
}

// -- SLO engine ---------------------------------------------------------------

/// A one-objective one-window config whose scaled windows are seconds, not
/// hours: short 5 s, long 60 s at timeScale 1/60.
obs::SloConfig fastLatencyConfig() {
    obs::SloConfig cfg;
    cfg.objectives = {{"latency", obs::SloKind::DeadlineAttainment, 0.99, 0.1}};
    cfg.windows = {{"fast", 300.0, 3600.0, 14.4, obs::SloState::FastBurn}};
    cfg.timeScale = 1.0 / 60.0;
    return cfg;
}

obs::SloSample goodSample() {
    obs::SloSample s;
    s.latencyMs = 10.0;
    s.deadlineMs = 100.0;
    return s;
}

obs::SloSample badSample() {
    obs::SloSample s;
    s.latencyMs = 250.0;
    s.deadlineMs = 100.0;
    return s;
}

TEST(SloEngine, BurnRateIsBadFractionOverBudget) {
    obs::EventLog::global().clearAll();
    obs::SloEngine engine(fastLatencyConfig());

    // A clean second of traffic: attainment 1, burn 0, Healthy.
    double t = 0.0;
    for (int i = 0; i < 100; ++i) engine.record(t += 0.01, goodSample());
    auto st = engine.evaluate(t);
    ASSERT_EQ(st.size(), 1u);
    EXPECT_EQ(st[0].state, obs::SloState::Healthy);
    EXPECT_DOUBLE_EQ(st[0].attainment, 1.0);
    EXPECT_DOUBLE_EQ(st[0].windows[0].shortBurn, 0.0);

    // Half the next second blows its deadline: bad fraction ~1/3 over the
    // window so far, burn = badFrac / (1 - 0.99) >> 14.4 on both windows.
    for (int i = 0; i < 50; ++i) {
        engine.record(t += 0.01, badSample());
        engine.record(t += 0.01, goodSample());
    }
    st = engine.evaluate(t);
    EXPECT_EQ(st[0].state, obs::SloState::FastBurn);
    EXPECT_TRUE(st[0].windows[0].firing);
    EXPECT_GT(st[0].windows[0].shortBurn, 14.4);
    EXPECT_GT(st[0].windows[0].longBurn, 14.4);
    EXPECT_GT(engine.fastBurnRate(), 14.4);
    EXPECT_NEAR(st[0].attainment,
                static_cast<double>(st[0].good) /
                    static_cast<double>(st[0].good + st[0].bad),
                1e-12);

    // Healthy -> FastBurn is one logged state change.
    EXPECT_EQ(engine.stateChanges(), 1u);
    EXPECT_EQ(obs::EventLog::global().countOf("slo_state_change"), 1u);
}

TEST(SloEngine, MultiWindowAlertUnfiresWhenShortWindowRecovers) {
    obs::SloEngine engine(fastLatencyConfig());
    // Scaled windows: short 5 s, long 60 s. A 5-second burst of pure
    // failure fires the pair; fifteen clean seconds empty the short window
    // (still-happening check) while the long window stays hot.
    double t = 0.0;
    for (int i = 0; i < 250; ++i) engine.record(t += 0.02, badSample());
    auto st = engine.evaluate(t);
    ASSERT_TRUE(st[0].windows[0].firing);
    EXPECT_EQ(st[0].state, obs::SloState::FastBurn);

    for (int i = 0; i < 750; ++i) engine.record(t += 0.02, goodSample());
    st = engine.evaluate(t);
    EXPECT_FALSE(st[0].windows[0].firing) << "resolved spike must un-fire";
    EXPECT_GT(st[0].windows[0].longBurn, 14.4) << "long window still remembers";
    EXPECT_EQ(st[0].state, obs::SloState::Healthy);
}

TEST(SloEngine, ObjectiveKindsDeriveTheirOwnVerdicts) {
    obs::SloConfig cfg;
    cfg.objectives = obs::SloConfig::defaultObjectives();
    cfg.windows = {{"fast", 300.0, 3600.0, 1.0, obs::SloState::FastBurn}};
    cfg.timeScale = 1.0 / 60.0;
    obs::SloEngine engine(cfg);

    double t = 0.0;
    obs::SloSample rejected;
    rejected.rejected = true;
    engine.record(t += 0.01, rejected); // bad for shed only
    obs::SloSample overBudget = goodSample();
    overBudget.eps = 0.5; // above the 0.1 budget: bad for staleness only
    engine.record(t += 0.01, overBudget);
    engine.record(t += 0.01, goodSample());

    const auto st = engine.evaluate(t);
    ASSERT_EQ(st.size(), 3u);
    const auto byName = [&](std::string_view name) -> const obs::SloObjectiveStatus& {
        for (const auto& s : st)
            if (s.name == name) return s;
        throw std::logic_error("objective missing");
    };
    // Latency: rejections are irrelevant, everything served was in time.
    EXPECT_EQ(byName("latency").bad, 0u);
    EXPECT_EQ(byName("latency").good, 2u);
    // Shed: exactly the rejected request is bad.
    EXPECT_EQ(byName("shed").bad, 1u);
    EXPECT_EQ(byName("shed").good, 2u);
    // Staleness: exactly the over-budget eps is bad.
    EXPECT_EQ(byName("staleness").bad, 1u);
    EXPECT_EQ(byName("staleness").good, 1u);
}

TEST(SloEngine, SloJsonCarriesObjectiveStates) {
    obs::SloEngine engine(fastLatencyConfig());
    engine.record(0.5, goodSample());
    engine.evaluate(1.0);
    const auto parsed = JsonValue::parse(engine.toJson());
    const auto& objectives = parsed.at("objectives");
    ASSERT_EQ(objectives.size(), 1u);
    EXPECT_EQ(objectives.at(0).at("name").asString(), "latency");
    EXPECT_EQ(objectives.at(0).at("state").asString(), "healthy");
    EXPECT_DOUBLE_EQ(objectives.at(0).at("attainment").asNumber(), 1.0);
    ASSERT_EQ(objectives.at(0).at("windows").size(), 1u);
    EXPECT_EQ(objectives.at(0).at("windows").at(0).at("window").asString(), "fast");
}

TEST(SloEngine, PrometheusExpositionOfBurnState) {
    obs::SloEngine engine(fastLatencyConfig());
    double t = 0.0;
    for (int i = 0; i < 100; ++i) engine.record(t += 0.01, badSample());
    engine.evaluate(t);

    const std::string text = obs::sloToPrometheusText(engine.status());
    const auto samples = obs::parsePrometheusText(text);
    EXPECT_EQ(samples.at("rinkit_slo_state{objective=\"latency\"}"), 2.0);
    EXPECT_EQ(samples.at("rinkit_slo_firing{objective=\"latency\",window=\"fast\"}"), 1.0);
    EXPECT_GT(samples.at("rinkit_slo_burn_rate{objective=\"latency\",window=\"fast\","
                         "horizon=\"short\"}"),
              14.4);
    EXPECT_LT(samples.at("rinkit_slo_attainment{objective=\"latency\"}"), 0.5);
}

// -- ops event log ------------------------------------------------------------

TEST(EventLog, BoundedRingKeepsNewestAndCounts) {
    auto& log = obs::EventLog::global();
    log.clearAll();
    log.setCapacity(3);
    for (int i = 0; i < 5; ++i)
        log.log("autoscale_up", "replicas " + std::to_string(i) + " -> " +
                                     std::to_string(i + 1));
    EXPECT_EQ(log.size(), 3u);
    EXPECT_EQ(log.totalLogged(), 5u);
    EXPECT_EQ(log.countOf("autoscale_up"), 3u);
    const auto events = log.snapshot();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events.front().detail, "replicas 2 -> 3"); // oldest kept
    EXPECT_EQ(events.back().detail, "replicas 4 -> 5");
    log.setCapacity(obs::EventLog::kDefaultCapacity);
    log.clearAll();
}

TEST(EventLog, JsonLinesParseAndStampActiveTrace) {
    auto& tracer = Tracer::global();
    tracer.setEnabled(true);
    tracer.setSampleEvery(1);
    auto& log = obs::EventLog::global();
    log.clearAll();

    std::uint64_t expectedTrace = 0;
    {
        ScopedSpan span("ops.window");
        expectedTrace = tracer.currentContext().traceId;
        // Zero traceId: the log resolves the calling thread's live trace.
        log.log("degrade_transition", "none -> approx", 0, "2");
    }
    log.log("wire_resync", "forced keyframe"); // outside any span: trace 0

    const std::string lines = log.toJsonLines();
    std::vector<JsonValue> parsed;
    std::size_t start = 0;
    while (start < lines.size()) {
        const auto end = lines.find('\n', start);
        parsed.push_back(JsonValue::parse(lines.substr(start, end - start)));
        if (end == std::string::npos) break;
        start = end + 1;
    }
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].at("type").asString(), "degrade_transition");
    EXPECT_EQ(parsed[0].at("detail").asString(), "none -> approx");
    EXPECT_DOUBLE_EQ(parsed[0].at("trace_id").asNumber(),
                     static_cast<double>(expectedTrace));
    EXPECT_EQ(parsed[0].at("replica").asString(), "2");
    EXPECT_EQ(parsed[1].at("type").asString(), "wire_resync");
    EXPECT_DOUBLE_EQ(parsed[1].at("trace_id").asNumber(), 0.0);

    tracer.setEnabled(false);
    tracer.clear();
    log.clearAll();
}

// -- tail sampler -------------------------------------------------------------

TEST_F(ObsTest, TailSamplerRetentionPriorityAndReasons) {
    obs::TailSamplerOptions opts;
    opts.baselineEvery = 0; // no uniform keeps: reasons below are exact
    obs::TailSampler sampler(opts);

    // Priority: deadline miss > shed > degraded, regardless of the other
    // flags set alongside.
    obs::TailVerdict all;
    all.durationMs = 5.0;
    all.deadlineMissed = true;
    all.rejected = true;
    all.degraded = true;
    sampler.open(1);
    EXPECT_EQ(sampler.finish(1, all), obs::RetainReason::DeadlineMiss);

    obs::TailVerdict shed;
    shed.rejected = true;
    shed.degraded = true;
    sampler.open(2);
    EXPECT_EQ(sampler.finish(2, shed), obs::RetainReason::Shed);

    obs::TailVerdict degraded;
    degraded.durationMs = 5.0;
    degraded.degraded = true;
    sampler.open(3);
    EXPECT_EQ(sampler.finish(3, degraded), obs::RetainReason::Degraded);

    obs::TailVerdict healthy;
    healthy.durationMs = 5.0;
    sampler.open(4);
    EXPECT_EQ(sampler.finish(4, healthy), obs::RetainReason::None);

    EXPECT_TRUE(sampler.isRetained(1));
    EXPECT_TRUE(sampler.isRetained(2));
    EXPECT_TRUE(sampler.isRetained(3));
    EXPECT_FALSE(sampler.isRetained(4));
    const auto stats = sampler.stats();
    EXPECT_EQ(stats.retainedDeadlineMiss, 1u);
    EXPECT_EQ(stats.retainedShed, 1u);
    EXPECT_EQ(stats.retainedDegraded, 1u);
    EXPECT_EQ(stats.retainedBaseline, 0u);
    EXPECT_EQ(stats.discarded, 1u);
}

TEST_F(ObsTest, TailSamplerOutlierAndBaseline) {
    obs::TailSamplerOptions opts;
    opts.baselineEvery = 100; // first finish is a baseline keep, then none
    opts.minOutlierSamples = 16;
    opts.outlierWindow = 64;
    obs::TailSampler sampler(opts);

    std::uint64_t id = 1;
    count outliers = 0;
    count baselines = 0;
    obs::TailVerdict healthy;
    healthy.durationMs = 1.0;
    for (int i = 0; i < 40; ++i) {
        sampler.open(id);
        const auto reason = sampler.finish(id++, healthy);
        if (reason == obs::RetainReason::Outlier) ++outliers;
        if (reason == obs::RetainReason::Baseline) ++baselines;
    }
    EXPECT_EQ(outliers, 0u) << "uniform durations have no outliers";
    EXPECT_EQ(baselines, 1u) << "every-100th baseline keeps exactly the first";

    // A duration far above the rolling p99 is kept as an outlier now that
    // the window has its minimum samples.
    obs::TailVerdict slow;
    slow.durationMs = 500.0;
    sampler.open(id);
    EXPECT_EQ(sampler.finish(id++, slow), obs::RetainReason::Outlier);
}

TEST_F(ObsTest, TailSamplerBoundsEvictionAndPendingOverflow) {
    obs::TailSamplerOptions opts;
    opts.maxRetained = 2;
    opts.maxPending = 2;
    opts.maxSpansPerTrace = 1;
    opts.baselineEvery = 0;
    obs::TailSampler sampler(opts);
    sampler.install();

    // Three retained misses through a 2-slot ring: the oldest evicts and
    // its id stops resolving (the exemplar-filter contract).
    obs::TailVerdict miss;
    miss.deadlineMissed = true;
    for (std::uint64_t id = 1; id <= 3; ++id) {
        sampler.open(id);
        sampler.finish(id, miss);
    }
    EXPECT_FALSE(sampler.isRetained(1));
    EXPECT_TRUE(sampler.isRetained(2));
    EXPECT_TRUE(sampler.isRetained(3));
    EXPECT_EQ(sampler.stats().evicted, 1u);
    EXPECT_EQ(sampler.retained().size(), 2u);

    // Pending bound: the third concurrently open root is not buffered,
    // but its verdict still rules.
    sampler.open(10);
    sampler.open(11);
    sampler.open(12);
    EXPECT_EQ(sampler.stats().pendingOverflow, 1u);
    sampler.finish(12, miss);
    EXPECT_TRUE(sampler.isRetained(12));
    obs::TailVerdict healthy;
    sampler.finish(10, healthy);
    sampler.finish(11, healthy);

    // Span bound: a trace buffers at most maxSpansPerTrace spans, the rest
    // count as dropped.
    auto& tracer = Tracer::global();
    {
        const auto ctx = tracer.makeRootContext(obs::Sample::Force);
        obs::ContextScope scope(ctx);
        sampler.open(ctx.traceId);
        { ScopedSpan a("tail.one"); }
        { ScopedSpan b("tail.two"); }
        sampler.finish(ctx.traceId, miss);
    }
    EXPECT_GE(sampler.stats().droppedSpans, 1u);
    sampler.uninstall();
}

TEST_F(ObsTest, TailSamplerBuffersCompleteTreeViaSpanSink) {
    Tracer::global().setSampleEvery(0); // tail config: only forced roots
    obs::TailSampler sampler;
    sampler.install();

    auto& tracer = Tracer::global();
    const auto ctx = tracer.makeRootContext(obs::Sample::Force);
    const double startUs = tracer.nowUs();
    {
        obs::ContextScope scope(ctx);
        sampler.open(ctx.traceId);
        { ScopedSpan child("tail.child"); }
    }
    tracer.recordSpan("tail.root", ctx, ctx.spanId, 0, startUs, tracer.nowUs());
    obs::TailVerdict miss;
    miss.durationMs = 1.0;
    miss.deadlineMissed = true;
    ASSERT_EQ(sampler.finish(ctx.traceId, miss), obs::RetainReason::DeadlineMiss);

    const auto kept = sampler.retained();
    ASSERT_EQ(kept.size(), 1u);
    EXPECT_EQ(kept[0].traceId, ctx.traceId);
    ASSERT_EQ(kept[0].spans.size(), 2u);
    expectConnectedTree(sampler.retainedSpans(), ctx.traceId);
    sampler.uninstall();
    EXPECT_EQ(Tracer::global().spanSink(), nullptr);
}

TEST_F(ObsTest, TailSamplerConcurrentRetainEvictExport) {
    obs::TailSamplerOptions opts;
    opts.maxRetained = 16;
    obs::TailSampler sampler(opts);
    sampler.install();
    Tracer::global().setSampleEvery(0);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> retainedSeen{0};
    // Exporter threads hammer the read API while workers open/finish.
    std::thread scraper([&] {
        while (!stop.load()) {
            for (const auto id : sampler.retainedIds())
                if (sampler.isRetained(id)) retainedSeen.fetch_add(1);
            (void)sampler.retainedSpans();
            (void)sampler.stats();
        }
    });
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
        workers.emplace_back([&, w] {
            auto& tracer = Tracer::global();
            for (int i = 0; i < 200; ++i) {
                const auto ctx = tracer.makeRootContext(obs::Sample::Force);
                obs::ContextScope scope(ctx);
                sampler.open(ctx.traceId);
                { ScopedSpan s("tail.work"); }
                obs::TailVerdict v;
                v.durationMs = 1.0 + i;
                v.deadlineMissed = (i + w) % 3 == 0;
                sampler.finish(ctx.traceId, v);
            }
        });
    }
    for (auto& t : workers) t.join();
    stop.store(true);
    scraper.join();
    // The scraper thread may have been starved entirely on a loaded
    // machine; a final pass from this thread keeps the check deterministic.
    for (const auto id : sampler.retainedIds())
        if (sampler.isRetained(id)) retainedSeen.fetch_add(1);
    sampler.uninstall();

    const auto stats = sampler.stats();
    EXPECT_EQ(stats.finished, 800u);
    EXPECT_GE(stats.retainedTotal(), stats.retainedDeadlineMiss);
    EXPECT_LE(sampler.retained().size(), opts.maxRetained);
    EXPECT_GT(retainedSeen.load(), 0u);
}

// -- exemplars ----------------------------------------------------------------

TEST(Exemplars, HistogramStampsAndExpositionRoundTrips) {
    serve::MetricsRegistry registry;
    registry.recordLatency("total_ms", 12.0, /*traceId=*/77, /*timestampUs=*/2'500'000.0);
    registry.recordLatency("total_ms", 30.0, /*traceId=*/91, /*timestampUs=*/3'500'000.0);
    const auto snap = registry.snapshot();
    const auto& stats = snap.histograms.at("total_ms");
    ASSERT_TRUE(stats.p99Ex.valid());
    EXPECT_EQ(stats.p99Ex.traceId, 91u);

    const std::string text = obs::toPrometheusText(snap);
    EXPECT_NE(text.find(" # {trace_id=\""), std::string::npos);

    // The classic parser tolerates (strips) the exemplar suffix...
    const auto samples = obs::parsePrometheusText(text);
    EXPECT_DOUBLE_EQ(samples.at("rinkit_phase_latency_ms{phase=\"total_ms\","
                                "quantile=\"0.99\"}"),
                     stats.p99Ms);
    // ...and the exemplar parser reads it back: id, cited value, timestamp
    // in seconds.
    const auto exemplars = obs::parsePrometheusExemplars(text);
    const auto& ex = exemplars.at("rinkit_phase_latency_ms{phase=\"total_ms\","
                                  "quantile=\"0.99\"}");
    EXPECT_EQ(ex.traceId, 91u);
    EXPECT_DOUBLE_EQ(ex.value, 30.0);
    EXPECT_DOUBLE_EQ(ex.timestampSec, 3.5);
}

TEST(Exemplars, FilterDropsUnretainedIdsAtSnapshot) {
    serve::MetricsRegistry registry;
    registry.recordLatency("total_ms", 12.0, 77, 1.0);
    registry.recordLatency("total_ms", 30.0, 91, 2.0);
    registry.setExemplarFilter([](std::uint64_t id) { return id == 77; });
    const auto snap = registry.snapshot();
    // p50 cites trace 77 (kept); p99 cites trace 91 (filtered out).
    EXPECT_TRUE(snap.histograms.at("total_ms").p50Ex.valid());
    EXPECT_FALSE(snap.histograms.at("total_ms").p99Ex.valid());
    const auto exemplars = obs::parsePrometheusExemplars(obs::toPrometheusText(snap));
    for (const auto& [key, ex] : exemplars) EXPECT_EQ(ex.traceId, 77u) << key;
}

// -- serving path end to end --------------------------------------------------

/// Per-replica/session accounting invariant (PR 6): everything submitted
/// or adopted is eventually completed, coalesced, rejected, or handed off.
void expectAccountingInvariant(const serve::MetricsSnapshot& snap) {
    EXPECT_EQ(snap.counter("submitted") + snap.counter("adopted"),
              snap.counter("completed") + snap.counter("coalesced") +
                  snap.counter("rejected") + snap.counter("handed_off"));
}

TEST_F(ObsTest, TailSamplingForceRetainsEachRootExactlyOnce) {
    Tracer::global().setSampleEvery(0); // head sampling keeps nothing
    const auto traj = slowTrajectory();

    serve::SessionServiceOptions options;
    options.slo = std::make_shared<obs::SloEngine>();
    auto sampler = std::make_shared<obs::TailSampler>();
    sampler->install();
    options.tailSampler = sampler;
    serve::SessionService service(options);
    const auto session = service.openSession(traj);
    service.drain();
    Tracer::global().clear();

    // Occupy the session, then blow a microscopic deadline: the miss is
    // retained by the tail verdict, not by the head escape hatch — and the
    // root span exists exactly once (Force short-circuits the head draw;
    // the deadline-miss flip finds the flag already set).
    auto first = service.submit(session, serve::SliderEvent::setFrame(1));
    auto second = service.submit(session, serve::SliderEvent::setCutoff(7.5, 1e-6));
    const auto firstOutcome = first.get();
    const auto outcome = second.get();
    service.drain();
    ASSERT_TRUE(outcome.accepted());
    ASSERT_TRUE(outcome.deadlineMissed);
    EXPECT_EQ(outcome.sloVerdict, serve::SloVerdict::DeadlineMissed);
    EXPECT_NE(outcome.traceId, 0u);
    EXPECT_TRUE(outcome.traceRetained);
    EXPECT_TRUE(sampler->isRetained(outcome.traceId));

    // Both requests were forced roots; each trace has exactly one root.
    const auto spans = Tracer::global().collect();
    for (const std::uint64_t traceId : {firstOutcome.traceId, outcome.traceId}) {
        ASSERT_NE(traceId, 0u);
        count roots = 0;
        for (const auto& s : spans)
            if (s.traceId == traceId && s.parentId == 0) ++roots;
        EXPECT_EQ(roots, 1u) << "trace " << traceId;
        expectConnectedTree(spans, traceId);
    }
    EXPECT_GE(sampler->stats().retainedDeadlineMiss, 1u);
    expectAccountingInvariant(service.metrics());
    sampler->uninstall();
}

TEST_F(ObsTest, ExportedExemplarsAlwaysNameRetainedTraces) {
    Tracer::global().setSampleEvery(0);
    const auto traj = tinyTrajectory();

    serve::SessionServiceOptions options;
    options.slo = std::make_shared<obs::SloEngine>();
    auto sampler = std::make_shared<obs::TailSampler>();
    // A tiny ring forces evictions mid-run, so the snapshot-time filter —
    // not luck — is what keeps the property true.
    obs::TailSamplerOptions samplerOpts;
    samplerOpts.maxRetained = 4;
    samplerOpts.baselineEvery = 2;
    sampler = std::make_shared<obs::TailSampler>(samplerOpts);
    sampler->install();
    options.tailSampler = sampler;
    serve::SessionService service(options);
    const auto session = service.openSession(traj);

    for (int i = 0; i < 32; ++i)
        service.submit(session, serve::SliderEvent::setFrame(i % 3)).get();
    service.drain();

    const auto snap = service.metrics();
    const auto exemplars = obs::parsePrometheusExemplars(obs::toPrometheusText(snap));
    count checked = 0;
    for (const auto& [key, ex] : exemplars) {
        EXPECT_TRUE(sampler->isRetained(ex.traceId))
            << key << " cites evicted/unknown trace " << ex.traceId;
        ++checked;
    }
    EXPECT_GT(checked, 0u) << "baseline retention must produce some exemplars";
    expectAccountingInvariant(snap);
    sampler->uninstall();
}

TEST_F(ObsTest, DebugRoutesServeSloAndEventsThroughGatewayAcl) {
    obs::EventLog::global().clearAll();
    const auto traj = tinyTrajectory();
    auto cluster = cloud::Cluster::paperReferenceCluster();
    cloud::JupyterHub hub(cluster);

    serve::SessionServiceOptions options;
    options.slo = std::make_shared<obs::SloEngine>();
    serve::SessionService service(options);
    hub.attachService(service, traj);

    ASSERT_TRUE(hub.login("ada"));
    auto future = hub.routeUserRequest("ada", "10.0.0.7", serve::SliderEvent::refresh());
    ASSERT_TRUE(future.has_value());
    future->get();
    service.drain();
    options.slo->evaluate();
    obs::EventLog::global().log("autoscale_up", "replicas 1 -> 2");

    // Without a gateway the ingress route alone decides.
    const auto slo = hub.debugSlo("10.0.0.9");
    ASSERT_TRUE(slo.has_value());
    const auto parsed = JsonValue::parse(*slo);
    EXPECT_EQ(parsed.at("objectives").size(), 3u);

    const auto events = hub.debugEvents("10.0.0.9");
    ASSERT_TRUE(events.has_value());
    EXPECT_NE(events->find("\"type\":\"autoscale_up\""), std::string::npos);

    // The gateway ACL applies to the debug surfaces exactly like /metrics.
    cloud::Gateway gateway;
    gateway.addRule({cloud::Gateway::Action::Allow, "10.0.", 443, "ops"});
    hub.attachGateway(gateway);
    EXPECT_TRUE(hub.debugSlo("10.0.0.9").has_value());
    EXPECT_TRUE(hub.debugEvents("10.0.0.9").has_value());
    EXPECT_FALSE(hub.debugSlo("203.0.113.5").has_value());
    EXPECT_FALSE(hub.debugEvents("203.0.113.5").has_value());
    obs::EventLog::global().clearAll();
}

} // namespace
