// Tests for the measure layer: the cold KADABRA sampler against exact
// betweenness at its stated bound, and viz::MeasureEngine's resolution
// (version-keyed exact and approx slots, cold sampling under tolerance or
// degrade, stale serving), with every exact read bit-equal to
// computeMeasure on the same graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "src/centrality/betweenness.hpp"
#include "src/centrality/kadabra.hpp"
#include "src/graph/generators.hpp"
#include "src/support/random.hpp"
#include "src/viz/measures.hpp"

namespace rinkit {
namespace {

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

    g.addEdge(0, 16); // the version bump invalidates the cached result
    eng.scores(g, viz::Measure::Closeness, exact, &info);
    EXPECT_FALSE(info.cacheHit);
}

TEST(MeasureEngine, ApproxNeverLeaksIntoExactRequests) {
    Graph g = generators::karateClub();
    viz::MeasureEngine eng;
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
    viz::MeasureEngine eng;
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

TEST(MeasureEngine, CoreNumberAfterDiffIsExactRecompute) {
    // The engine keeps no diff-driven state: after a noteDiff'd removal a
    // CoreNumber read is a from-scratch recompute, bit-equal to
    // computeMeasure.
    Graph g = generators::erdosRenyi(60, 0.08, 3);
    viz::MeasureEngine eng;
    viz::MeasureEngine::Request exact;
    viz::MeasureEngine::ResultInfo info;

    eng.scores(g, viz::Measure::CoreNumber, exact, &info);
    EXPECT_EQ(info.tier, viz::ResolutionTier::Exact);

    const auto edges = allEdges(g);
    ASSERT_FALSE(edges.empty());
    const std::uint64_t preVersion = g.version();
    std::vector<std::pair<node, node>> removed = {edges.front()};
    g.removeEdge(edges.front().first, edges.front().second);
    eng.noteDiff(g, preVersion, {}, removed);

    const auto scores = eng.scores(g, viz::Measure::CoreNumber, exact, &info);
    EXPECT_EQ(info.tier, viz::ResolutionTier::Exact);
    EXPECT_FALSE(info.cacheHit);
    EXPECT_EQ(scores, viz::computeMeasure(g, CsrView::fromGraph(g), viz::Measure::CoreNumber));

    // A second read of the same version is a cache hit.
    eng.scores(g, viz::Measure::CoreNumber, exact, &info);
    EXPECT_TRUE(info.cacheHit);
}

TEST(MeasureEngine, ExactClosenessIsBitEqualToComputeMeasure) {
    // After a noteDiff'd mutation an exact read is the MS-BFS recompute,
    // so both variants equal computeMeasure bit for bit (Harmonic's 1/d
    // sums included).
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
    // After a noteDiff'd mutation an exact read is a plain recompute.
    // n < 64 keeps Brandes on one thread, so two runs sum in one order.
    Graph g = generators::erdosRenyi(60, 0.08, 3);
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
    viz::MeasureEngine eng;
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

TEST(MeasureEngine, ApproxBetweennessIsColdKadabraAcrossDiffs) {
    // Every Approx betweenness read is a cold KADABRA run: before and after
    // a noteDiff'd mutation the served scores are bit-equal to a fresh
    // KadabraBetweenness with the same (epsilon, delta, seed). Sample
    // counts are integers, so the OpenMP reduction order cannot change them.
    Graph g = generators::erdosRenyi(120, 0.05, 42);
    const viz::MeasureEngine::Options opts;
    viz::MeasureEngine eng(opts);
    viz::MeasureEngine::Request tol;
    tol.tolerance = 0.1;
    viz::MeasureEngine::ResultInfo info;

    const auto expectColdKadabra = [&](const std::vector<double>& served) {
        EXPECT_EQ(info.tier, viz::ResolutionTier::Approx);
        EXPECT_FALSE(info.cacheHit);
        KadabraBetweenness kb(g, tol.tolerance, viz::MeasureEngine::kApproxDelta, opts.seed);
        kb.run();
        EXPECT_EQ(served, kb.scores());
        EXPECT_EQ(info.samples, kb.numberOfSamples());
        EXPECT_DOUBLE_EQ(info.epsilon, kb.achievedEpsilon());
        EXPECT_LE(info.epsilon, tol.tolerance);
    };
    expectColdKadabra(eng.scores(g, viz::Measure::Betweenness, tol, &info));

    const auto edges = allEdges(g);
    ASSERT_FALSE(edges.empty());
    const std::uint64_t preVersion = g.version();
    std::vector<std::pair<node, node>> removed = {edges.front()};
    g.removeEdge(edges.front().first, edges.front().second);
    eng.noteDiff(g, preVersion, {}, removed);
    expectColdKadabra(eng.scores(g, viz::Measure::Betweenness, tol, &info));

    // Same version again: the approx slot serves the cached result.
    eng.scores(g, viz::Measure::Betweenness, tol, &info);
    EXPECT_TRUE(info.cacheHit);
    EXPECT_EQ(info.tier, viz::ResolutionTier::Approx);
}

} // namespace
} // namespace rinkit
