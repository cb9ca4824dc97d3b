// Property tests for the dynamic/approximate measure layer: every dynamic
// kernel is driven through random diff sequences and compared against its
// from-scratch counterpart at the accuracy contract DESIGN.md documents
// (integer-valued state bit-equal), the sampling kernels are checked
// against their stated error bounds, and the MeasureEngine's three-tier
// resolution (cache keying, dynamic updates, approximation under
// tolerance/degrade) is exercised directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "src/centrality/betweenness.hpp"
#include "src/centrality/core_decomposition.hpp"
#include "src/centrality/kadabra.hpp"
#include "src/dyn/dyn_bfs.hpp"
#include "src/dyn/dyn_core.hpp"
#include "src/dyn/dyn_kadabra.hpp"
#include "src/dyn/edge_batch.hpp"
#include "src/components/csr_bfs.hpp"
#include "src/graph/generators.hpp"
#include "src/support/random.hpp"
#include "src/viz/measures.hpp"

namespace rinkit {
namespace {

using dyn::EdgeBatch;

std::vector<std::pair<node, node>> allEdges(const Graph& g) {
    const auto v = CsrView::fromGraph(g);
    std::vector<std::pair<node, node>> edges;
    for (node u = 0; u < v.numberOfNodes(); ++u) {
        for (count i = v.offsets()[u]; i < v.offsets()[u + 1]; ++i) {
            const node w = v.targets()[i];
            if (u < w) edges.emplace_back(u, w);
        }
    }
    return edges;
}

/// Applies a random diff to @p g: @p removals existing edges out, @p
/// additions non-edges in, both disjoint (an edge is never removed and
/// re-added in one batch). Returns the sorted (added, removed) lists in
/// DynamicRin's diff shape.
void mutate(Graph& g, Rng& rng, count removals, count additions,
            std::vector<std::pair<node, node>>& added,
            std::vector<std::pair<node, node>>& removed) {
    added.clear();
    removed.clear();
    std::set<std::pair<node, node>> touched;
    auto edges = allEdges(g);
    for (count r = 0; r < removals && !edges.empty(); ++r) {
        const auto idx = rng.pick(edges.size());
        const auto e = edges[idx];
        edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(idx));
        g.removeEdge(e.first, e.second);
        removed.push_back(e);
        touched.insert(e);
    }
    const count n = g.numberOfNodes();
    for (count a = 0; a < additions;) {
        node u = static_cast<node>(rng.pick(n));
        node w = static_cast<node>(rng.pick(n));
        if (u == w) continue;
        if (u > w) std::swap(u, w);
        if (g.hasEdge(u, w) || touched.count({u, w})) continue;
        g.addEdge(u, w);
        added.emplace_back(u, w);
        touched.insert({u, w});
        ++a;
    }
    std::sort(added.begin(), added.end());
    std::sort(removed.begin(), removed.end());
}

TEST(ComposeDiff, NetsOutCancellingEdges) {
    std::vector<std::pair<node, node>> added = {{0, 1}, {2, 3}};
    std::vector<std::pair<node, node>> removed = {{4, 5}};
    // Second batch removes {2,3} again (cancels the add) and re-adds {4,5}
    // (cancels the remove); {6,7} is new.
    dyn::composeDiff(added, removed, {{4, 5}, {6, 7}}, {{2, 3}});
    ASSERT_EQ(added.size(), 2u);
    EXPECT_EQ(added[0], (std::pair<node, node>{0, 1}));
    EXPECT_EQ(added[1], (std::pair<node, node>{6, 7}));
    EXPECT_TRUE(removed.empty());
}

TEST(LevelRepairer, MatchesFreshBfsOverRandomDiffs) {
    Graph g = generators::erdosRenyi(150, 0.04, 11);
    const count n = g.numberOfNodes();
    const node source = 0;

    auto v = CsrView::fromGraph(g);
    CsrBfs bfs(v);
    bfs.run(source);
    std::vector<std::uint16_t> lvl(n);
    for (node u = 0; u < n; ++u) {
        const auto d = bfs.levelOf(u);
        lvl[u] = d == CsrBfs::unreachedLevel ? dyn::kUnreachedLevel
                                             : static_cast<std::uint16_t>(d);
    }

    Rng rng(99);
    dyn::LevelRepairer repairer;
    std::vector<dyn::LevelChange> changes;
    for (int round = 0; round < 12; ++round) {
        std::vector<std::pair<node, node>> added, removed;
        mutate(g, rng, 4, 4, added, removed);
        v = CsrView::fromGraph(g);
        changes.clear();
        repairer.repair(v, source, lvl.data(), EdgeBatch{&added, &removed}, changes);

        CsrBfs fresh(v);
        fresh.run(source);
        for (node u = 0; u < n; ++u) {
            const auto expect = fresh.levelOf(u) == CsrBfs::unreachedLevel
                                    ? dyn::kUnreachedLevel
                                    : static_cast<std::uint16_t>(fresh.levelOf(u));
            ASSERT_EQ(lvl[u], expect) << "round " << round << " node " << u;
        }
        // Every reported change is real (old != new).
        for (const auto& c : changes) EXPECT_NE(c.oldLevel, c.newLevel);
    }
}

TEST(DynCoreDecomposition, BitEqualOverRandomDiffs) {
    Graph g = generators::erdosRenyi(100, 0.06, 17);
    dyn::DynCoreDecomposition dk;
    dk.init(CsrView::fromGraph(g));

    Rng rng(29);
    for (int round = 0; round < 12; ++round) {
        std::vector<std::pair<node, node>> added, removed;
        mutate(g, rng, 4, 4, added, removed);
        dk.update(CsrView::fromGraph(g), EdgeBatch{&added, &removed});

        CoreDecomposition cd(g);
        cd.run();
        for (node u = 0; u < g.numberOfNodes(); ++u)
            ASSERT_EQ(dk.coreOf(u), static_cast<count>(cd.score(u))) << "round " << round;
        EXPECT_EQ(dk.maxCore(), cd.maxCore());
    }
}

TEST(KadabraBetweenness, WithinBoundOfExactOnKarate) {
    const auto g = generators::karateClub();
    const count n = g.numberOfNodes();
    const double eps = 0.08;
    KadabraBetweenness kb(g, eps, 0.1, 7);
    kb.run();
    EXPECT_GT(kb.numberOfSamples(), 0u);
    EXPECT_LE(kb.achievedEpsilon(), eps);

    // Kadabra estimates the pair fraction sum_delta / (n(n-1)); exact
    // normalized betweenness divides by (n-1)(n-2). Rescale to compare.
    Betweenness exact(g, true);
    exact.run();
    const double scale = static_cast<double>(n - 2) / static_cast<double>(n);
    double worst = 0.0;
    for (node u = 0; u < n; ++u)
        worst = std::max(worst, std::abs(kb.score(u) - exact.score(u) * scale));
    EXPECT_LE(worst, eps);
}

TEST(DynKadabra, WithinStatedBoundOverRandomDiffs) {
    // The maintained sample set must keep its (eps, delta) guarantee after
    // arbitrary diff sequences: compare against from-scratch exact
    // betweenness (at Kadabra's pair-fraction scale) every round.
    const double eps = 0.08;
    for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{23}}) {
        Graph g = generators::erdosRenyi(200, 0.035, seed);
        const count n = g.numberOfNodes();
        dyn::DynKadabra dk;
        dk.init(CsrView::fromGraph(g), eps, 0.1, seed + 5);
        EXPECT_GT(dk.numberOfSamples(), 0u);
        EXPECT_LE(dk.achievedEpsilon(), eps);

        Rng rng(seed * 77 + 1);
        std::vector<std::pair<node, node>> added, removed;
        for (int round = 0; round < 10; ++round) {
            mutate(g, rng, 3, 3, added, removed);
            const auto v = CsrView::fromGraph(g);
            dk.update(v, EdgeBatch{&added, &removed});
            ASSERT_LE(dk.achievedEpsilon(), eps + 1e-12);

            Betweenness exact(g, true);
            exact.run(v);
            const double scale =
                static_cast<double>(n - 2) / static_cast<double>(n);
            const auto scores = dk.scores();
            double worst = 0.0;
            for (node u = 0; u < n; ++u)
                worst = std::max(worst,
                                 std::abs(scores[u] - exact.score(u) * scale));
            ASSERT_LE(worst, dk.achievedEpsilon())
                << "seed " << seed << " round " << round << " resampled "
                << dk.lastResampled();
        }
    }
}

TEST(DynKadabra, DeterministicAndCheaperThanResamplingEverything) {
    // Same seed + same diff sequence => identical scores regardless of
    // history being warm; and the affected-sample detection must actually
    // skip work (resampling everything would defeat the tier).
    Graph g = generators::erdosRenyi(300, 0.025, 11);
    dyn::DynKadabra a, b;
    a.init(CsrView::fromGraph(g), 0.1, 0.1, 9);
    b.init(CsrView::fromGraph(g), 0.1, 0.1, 9);

    Rng rng(401);
    std::vector<std::pair<node, node>> added, removed;
    for (int round = 0; round < 6; ++round) {
        mutate(g, rng, 2, 2, added, removed);
        const auto v = CsrView::fromGraph(g);
        a.update(v, EdgeBatch{&added, &removed});
        b.update(v, EdgeBatch{&added, &removed});
        EXPECT_EQ(a.lastResampled(), b.lastResampled());
        EXPECT_LT(a.lastResampled(), a.numberOfSamples());
        EXPECT_EQ(a.scores(), b.scores());
    }
}

// ---- MeasureEngine resolution policy --------------------------------------

TEST(MeasureEngine, ExactCacheServesAndIsVersionKeyed) {
    Graph g = generators::karateClub();
    viz::MeasureEngine eng;
    viz::MeasureEngine::Request exact;
    viz::MeasureEngine::ResultInfo info;

    const auto first = eng.scores(g, viz::Measure::Closeness, exact, &info);
    EXPECT_EQ(info.tier, viz::ResolutionTier::Exact);
    EXPECT_FALSE(info.cacheHit);
    EXPECT_DOUBLE_EQ(info.epsilon, 0.0);

    const auto again = eng.scores(g, viz::Measure::Closeness, exact, &info);
    EXPECT_TRUE(info.cacheHit);
    EXPECT_EQ(again, first);

    g.addEdge(0, 16); // version bump invalidates without noteDiff
    eng.scores(g, viz::Measure::Closeness, exact, &info);
    EXPECT_FALSE(info.cacheHit);
}

TEST(MeasureEngine, ApproxNeverLeaksIntoExactRequests) {
    Graph g = generators::karateClub();
    viz::MeasureEngine::Options opts;
    opts.dynamicMeasures = false; // force the sampled path under tolerance
    viz::MeasureEngine eng(opts);
    viz::MeasureEngine::ResultInfo info;

    viz::MeasureEngine::Request tol;
    tol.tolerance = 0.3;
    eng.scores(g, viz::Measure::Betweenness, tol, &info);
    EXPECT_EQ(info.tier, viz::ResolutionTier::Approx);
    EXPECT_GT(info.epsilon, 0.0);
    EXPECT_LE(info.epsilon, 0.3);
    EXPECT_GT(info.samples, 0u);

    // An exact request must not be served from the approx slot.
    viz::MeasureEngine::Request exact;
    eng.scores(g, viz::Measure::Betweenness, exact, &info);
    EXPECT_EQ(info.tier, viz::ResolutionTier::Exact);
    EXPECT_FALSE(info.cacheHit);
    EXPECT_DOUBLE_EQ(info.epsilon, 0.0);

    // And the fresh exact slot now serves tolerance requests (exact is
    // always an acceptable answer to an approximate question).
    eng.scores(g, viz::Measure::Betweenness, tol, &info);
    EXPECT_TRUE(info.cacheHit);
    EXPECT_EQ(info.tier, viz::ResolutionTier::Exact);
    EXPECT_DOUBLE_EQ(info.epsilon, 0.0);
}

TEST(MeasureEngine, ApproxSlotKeyedByTolerance) {
    Graph g = generators::karateClub();
    viz::MeasureEngine::Options opts;
    opts.dynamicMeasures = false;
    viz::MeasureEngine eng(opts);
    viz::MeasureEngine::ResultInfo info;

    viz::MeasureEngine::Request loose;
    loose.tolerance = 0.3;
    eng.scores(g, viz::Measure::Betweenness, loose, &info);
    ASSERT_EQ(info.tier, viz::ResolutionTier::Approx);
    const double achieved = info.epsilon;

    // Same tolerance again: served from the approx slot.
    eng.scores(g, viz::Measure::Betweenness, loose, &info);
    EXPECT_TRUE(info.cacheHit);
    EXPECT_EQ(info.tier, viz::ResolutionTier::Approx);
    EXPECT_DOUBLE_EQ(info.epsilon, achieved);

    // Tighter tolerance than the achieved bound: must resample, not serve
    // the looser cached answer.
    viz::MeasureEngine::Request tight;
    tight.tolerance = achieved / 2.0;
    eng.scores(g, viz::Measure::Betweenness, tight, &info);
    EXPECT_FALSE(info.cacheHit);
    EXPECT_LE(info.epsilon, tight.tolerance);
}

TEST(MeasureEngine, DynamicTierTracksDiffAndMatchesFromScratch) {
    Graph g = generators::erdosRenyi(60, 0.08, 3);
    viz::MeasureEngine eng;
    viz::MeasureEngine::Request exact;
    viz::MeasureEngine::ResultInfo info;

    eng.scores(g, viz::Measure::CoreNumber, exact, &info); // primes dyn state
    EXPECT_EQ(info.tier, viz::ResolutionTier::Exact);

    const auto edges = allEdges(g);
    ASSERT_FALSE(edges.empty());
    const std::uint64_t preVersion = g.version();
    std::vector<std::pair<node, node>> removed = {edges.front()};
    g.removeEdge(edges.front().first, edges.front().second);
    eng.noteDiff(g, preVersion, {}, removed);

    const auto scores = eng.scores(g, viz::Measure::CoreNumber, exact, &info);
    EXPECT_EQ(info.tier, viz::ResolutionTier::Dynamic);
    EXPECT_EQ(info.diffEdges, 1u);

    // Core numbers are integers: repair is bit-equal.
    const auto view = CsrView::fromGraph(g);
    EXPECT_EQ(scores, viz::computeMeasure(g, view, viz::Measure::CoreNumber));

    // A second read of the same version serves the repaired state cheaply.
    eng.scores(g, viz::Measure::CoreNumber, exact, &info);
    EXPECT_TRUE(info.cacheHit);
}

TEST(MeasureEngine, ExactClosenessIsBitEqualToComputeMeasure) {
    // Closeness and Harmonic have no dynamic kernel: after a noteDiff'd
    // mutation an exact read is the MS-BFS recompute, so both variants
    // equal computeMeasure bit for bit (Harmonic's 1/d sums included).
    Graph g = generators::erdosRenyi(60, 0.08, 3);
    viz::MeasureEngine eng;
    viz::MeasureEngine::Request exact;
    viz::MeasureEngine::ResultInfo info;
    for (const auto m : {viz::Measure::Closeness, viz::Measure::HarmonicCloseness})
        eng.scores(g, m, exact, &info);

    Rng rng(5);
    std::vector<std::pair<node, node>> added, removed;
    const std::uint64_t preVersion = g.version();
    mutate(g, rng, 2, 2, added, removed);
    eng.noteDiff(g, preVersion, added, removed);
    const auto view = CsrView::fromGraph(g);
    for (const auto m : {viz::Measure::Closeness, viz::Measure::HarmonicCloseness}) {
        const auto scores = eng.scores(g, m, exact, &info);
        EXPECT_EQ(info.tier, viz::ResolutionTier::Exact) << viz::measureName(m);
        EXPECT_EQ(scores, viz::computeMeasure(g, view, m)) << viz::measureName(m);
    }
}

TEST(MeasureEngine, ExactBetweennessIsBitEqualToComputeMeasure) {
    // Betweenness has no exact dynamic kernel: under the state cap, and
    // after a noteDiff'd mutation, an exact read is a plain recompute.
    // n < 64 keeps Brandes on one thread, so two runs sum in one order.
    Graph g = generators::erdosRenyi(60, 0.08, 3);
    ASSERT_LE(g.numberOfNodes(), viz::MeasureEngine::Options{}.dynStateMaxNodes);
    viz::MeasureEngine eng;
    viz::MeasureEngine::Request exact;
    viz::MeasureEngine::ResultInfo info;

    const auto first = eng.scores(g, viz::Measure::Betweenness, exact, &info);
    EXPECT_EQ(info.tier, viz::ResolutionTier::Exact);
    EXPECT_EQ(first, viz::computeMeasure(g, CsrView::fromGraph(g), viz::Measure::Betweenness));

    Rng rng(5);
    std::vector<std::pair<node, node>> added, removed;
    const std::uint64_t preVersion = g.version();
    mutate(g, rng, 2, 2, added, removed);
    eng.noteDiff(g, preVersion, added, removed);
    const auto second = eng.scores(g, viz::Measure::Betweenness, exact, &info);
    EXPECT_EQ(info.tier, viz::ResolutionTier::Exact);
    EXPECT_EQ(second, viz::computeMeasure(g, CsrView::fromGraph(g), viz::Measure::Betweenness));
}

TEST(MeasureEngine, VersionGapFallsBackToExactRecompute) {
    Graph g = generators::erdosRenyi(60, 0.08, 3);
    viz::MeasureEngine eng;
    viz::MeasureEngine::Request exact;
    viz::MeasureEngine::ResultInfo info;

    eng.scores(g, viz::Measure::CoreNumber, exact, &info);

    // Mutate WITHOUT noteDiff: the dyn chain cannot bridge the gap, so the
    // engine must recompute from scratch rather than repair from a stale
    // base (a silent wrong answer).
    g.addEdge(0, 59);
    g.addEdge(1, 58);
    const auto scores = eng.scores(g, viz::Measure::CoreNumber, exact, &info);
    EXPECT_EQ(info.tier, viz::ResolutionTier::Exact);
    EXPECT_FALSE(info.cacheHit);

    const auto view = CsrView::fromGraph(g);
    EXPECT_EQ(scores, viz::computeMeasure(g, view, viz::Measure::CoreNumber));
}

TEST(MeasureEngine, StaleDegradeServesOldVersionAndIsLabelled) {
    Graph g = generators::karateClub();
    viz::MeasureEngine eng;
    viz::MeasureEngine::Request exact;
    viz::MeasureEngine::ResultInfo info;

    const auto old = eng.scores(g, viz::Measure::PageRank, exact, &info);
    g.addEdge(0, 16);

    viz::MeasureEngine::Request stale;
    stale.degrade = viz::DegradeLevel::Stale;
    const auto served = eng.scores(g, viz::Measure::PageRank, stale, &info);
    EXPECT_EQ(info.tier, viz::ResolutionTier::Stale);
    EXPECT_TRUE(info.cacheHit);
    EXPECT_EQ(served, old);

    // Without the degrade flag the same request recomputes.
    eng.scores(g, viz::Measure::PageRank, exact, &info);
    EXPECT_EQ(info.tier, viz::ResolutionTier::Exact);
    EXPECT_FALSE(info.cacheHit);
}

TEST(MeasureEngine, ApproxDegradeAppliesFloorTolerance) {
    Graph g = generators::karateClub();
    viz::MeasureEngine::Options opts;
    opts.dynamicMeasures = false;
    viz::MeasureEngine eng(opts);
    viz::MeasureEngine::ResultInfo info;

    // No caller tolerance, but the serving ladder degraded to Approx: the
    // engine applies its kDegradeEpsilon floor and reports the bound.
    viz::MeasureEngine::Request req;
    req.degrade = viz::DegradeLevel::Approx;
    eng.scores(g, viz::Measure::Betweenness, req, &info);
    EXPECT_EQ(info.tier, viz::ResolutionTier::Approx);
    EXPECT_GT(info.epsilon, 0.0);
    EXPECT_LE(info.epsilon, viz::MeasureEngine::kDegradeEpsilon);
    EXPECT_DOUBLE_EQ(info.delta, viz::MeasureEngine::kApproxDelta);
}

TEST(MeasureEngine, WarmApproxMaintainsSampleStateAcrossDiffs) {
    // With dynamicMeasures on, a tolerant betweenness read primes the
    // DynKadabra sample state; after a noteDiff'd mutation the next read
    // updates that state from the diff (reported via diffEdges) instead of
    // sampling from scratch, still within the stated bound.
    Graph g = generators::erdosRenyi(120, 0.05, 42);
    const count n = g.numberOfNodes();
    viz::MeasureEngine eng;
    viz::MeasureEngine::Request tol;
    tol.tolerance = 0.1;
    viz::MeasureEngine::ResultInfo info;

    eng.scores(g, viz::Measure::Betweenness, tol, &info);
    EXPECT_EQ(info.tier, viz::ResolutionTier::Approx);
    EXPECT_GT(info.samples, 0u);
    EXPECT_EQ(info.diffEdges, 0u);
    ASSERT_LE(info.epsilon, 0.1);

    const auto edges = allEdges(g);
    ASSERT_FALSE(edges.empty());
    const std::uint64_t preVersion = g.version();
    std::vector<std::pair<node, node>> removed = {edges.front()};
    g.removeEdge(edges.front().first, edges.front().second);
    eng.noteDiff(g, preVersion, {}, removed);

    const auto scores = eng.scores(g, viz::Measure::Betweenness, tol, &info);
    EXPECT_EQ(info.tier, viz::ResolutionTier::Approx);
    EXPECT_FALSE(info.cacheHit);
    EXPECT_EQ(info.diffEdges, 1u);
    EXPECT_GT(info.samples, 0u);
    ASSERT_LE(info.epsilon, 0.1);

    const auto view = CsrView::fromGraph(g);
    const auto fresh = viz::computeMeasure(g, view, viz::Measure::Betweenness);
    const double scale = static_cast<double>(n - 2) / static_cast<double>(n);
    double worst = 0.0;
    for (node u = 0; u < n; ++u)
        worst = std::max(worst, std::abs(scores[u] - fresh[u] * scale));
    EXPECT_LE(worst, info.epsilon);

    // Same version again: the approx slot serves the cached result.
    eng.scores(g, viz::Measure::Betweenness, tol, &info);
    EXPECT_TRUE(info.cacheHit);
    EXPECT_EQ(info.tier, viz::ResolutionTier::Approx);
}

} // namespace
} // namespace rinkit
