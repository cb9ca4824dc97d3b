// Tests for all centrality measures: exact values on closed-form graphs,
// cross-validation between exact and approximate algorithms, and API
// contracts (run-before-scores, ranking order).
#include <gtest/gtest.h>

#include <cmath>

#include "src/centrality/betweenness.hpp"
#include "src/centrality/closeness.hpp"
#include "src/centrality/core_decomposition.hpp"
#include "src/centrality/degree.hpp"
#include "src/centrality/eigenvector.hpp"
#include "src/centrality/kadabra.hpp"
#include "src/centrality/pagerank.hpp"
#include "src/graph/generators.hpp"

namespace rinkit {
namespace {

Graph starGraph(count leaves) {
    Graph g(leaves + 1);
    for (node u = 1; u <= leaves; ++u) g.addEdge(0, u);
    return g;
}

Graph pathGraph(count n) {
    Graph g(n);
    for (node u = 0; u + 1 < n; ++u) g.addEdge(u, u + 1);
    return g;
}

TEST(Degree, RawAndNormalized) {
    const auto g = starGraph(5);
    DegreeCentrality raw(g);
    raw.run();
    EXPECT_DOUBLE_EQ(raw.score(0), 5.0);
    EXPECT_DOUBLE_EQ(raw.score(3), 1.0);
    DegreeCentrality norm(g, true);
    norm.run();
    EXPECT_DOUBLE_EQ(norm.score(0), 1.0);
    EXPECT_DOUBLE_EQ(norm.score(3), 0.2);
}

TEST(Degree, RankingSortedDescending) {
    const auto g = generators::karateClub();
    DegreeCentrality d(g);
    d.run();
    const auto r = d.ranking();
    ASSERT_EQ(r.size(), 34u);
    EXPECT_EQ(r[0].first, 33u); // degree 17
    EXPECT_EQ(r[1].first, 0u);  // degree 16
    for (count i = 1; i < r.size(); ++i) EXPECT_GE(r[i - 1].second, r[i].second);
}

TEST(Centrality, ScoresBeforeRunThrows) {
    const auto g = starGraph(3);
    DegreeCentrality d(g);
    EXPECT_THROW(d.scores(), std::logic_error);
    EXPECT_THROW(d.score(0), std::logic_error);
    EXPECT_THROW(d.ranking(), std::logic_error);
}

TEST(Closeness, StarCenterIsMaximal) {
    const auto g = starGraph(6);
    ClosenessCentrality c(g);
    c.run();
    EXPECT_DOUBLE_EQ(c.score(0), 1.0); // distance 1 to all, normalized
    for (node u = 1; u <= 6; ++u) EXPECT_LT(c.score(u), 1.0);
    EXPECT_DOUBLE_EQ(c.maximum(), 1.0);
}

TEST(Closeness, PathEndpointValue) {
    // P4: node 0 distances 0,1,2,3 -> closeness = 3/6 = 0.5 (normalized).
    const auto g = pathGraph(4);
    ClosenessCentrality c(g);
    c.run();
    EXPECT_DOUBLE_EQ(c.score(0), 0.5);
    EXPECT_DOUBLE_EQ(c.score(1), 3.0 / 4.0);
}

TEST(Closeness, DisconnectedWassermanFaust) {
    // Two K2s in a 4-node graph: each node reaches 1 node at distance 1.
    // WF: (r-1)/sum * (r-1)/(n-1) = 1/1 * 1/3.
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(2, 3);
    ClosenessCentrality c(g);
    c.run();
    for (node u = 0; u < 4; ++u) EXPECT_DOUBLE_EQ(c.score(u), 1.0 / 3.0);
}

TEST(Closeness, IsolatedNodeScoresZero) {
    Graph g(3);
    g.addEdge(0, 1);
    ClosenessCentrality c(g);
    c.run();
    EXPECT_DOUBLE_EQ(c.score(2), 0.0);
}

TEST(Closeness, HarmonicVariant) {
    // P3 middle node: 1/1 + 1/1 = 2, normalized by (n-1)=2 -> 1.
    const auto g = pathGraph(3);
    ClosenessCentrality c(g, ClosenessCentrality::Variant::Harmonic);
    c.run();
    EXPECT_DOUBLE_EQ(c.score(1), 1.0);
    EXPECT_DOUBLE_EQ(c.score(0), (1.0 + 0.5) / 2.0);
}

TEST(Closeness, HarmonicHandlesDisconnection) {
    Graph g(3);
    g.addEdge(0, 1);
    ClosenessCentrality c(g, ClosenessCentrality::Variant::Harmonic);
    c.run();
    EXPECT_DOUBLE_EQ(c.score(0), 0.5);
    EXPECT_DOUBLE_EQ(c.score(2), 0.0);
}

TEST(Betweenness, StarCenter) {
    // Star S5: center lies on all C(5,2)=10 leaf pairs.
    const auto g = starGraph(5);
    Betweenness b(g);
    b.run();
    EXPECT_DOUBLE_EQ(b.score(0), 10.0);
    for (node u = 1; u <= 5; ++u) EXPECT_DOUBLE_EQ(b.score(u), 0.0);
}

TEST(Betweenness, PathGraphValues) {
    // P5: node i lies on i*(4-i) pairs.
    const auto g = pathGraph(5);
    Betweenness b(g);
    b.run();
    EXPECT_DOUBLE_EQ(b.score(0), 0.0);
    EXPECT_DOUBLE_EQ(b.score(1), 3.0);
    EXPECT_DOUBLE_EQ(b.score(2), 4.0);
    EXPECT_DOUBLE_EQ(b.score(3), 3.0);
    EXPECT_DOUBLE_EQ(b.score(4), 0.0);
}

TEST(Betweenness, CycleSplitsPathsEvenly) {
    // C4: for each node, the two opposite-corner paths pass through it with
    // multiplicity 1/2 each -> betweenness 0.5.
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 3);
    g.addEdge(3, 0);
    Betweenness b(g);
    b.run();
    for (node u = 0; u < 4; ++u) EXPECT_DOUBLE_EQ(b.score(u), 0.5);
}

TEST(Betweenness, NormalizedMaxIsOne) {
    const auto g = starGraph(9);
    Betweenness b(g, true);
    b.run();
    EXPECT_DOUBLE_EQ(b.score(0), 1.0);
}

TEST(Betweenness, DisconnectedGraph) {
    Graph g(6);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(3, 4);
    g.addEdge(4, 5);
    Betweenness b(g);
    b.run();
    EXPECT_DOUBLE_EQ(b.score(1), 1.0);
    EXPECT_DOUBLE_EQ(b.score(4), 1.0);
    EXPECT_DOUBLE_EQ(b.score(0), 0.0);
}

TEST(KadabraBetweenness, InvalidParametersThrow) {
    const auto g = generators::karateClub();
    EXPECT_THROW(KadabraBetweenness(g, 0.0, 0.1), std::invalid_argument);
    EXPECT_THROW(KadabraBetweenness(g, 1.5, 0.1), std::invalid_argument);
    EXPECT_THROW(KadabraBetweenness(g, 0.1, 0.0), std::invalid_argument);
}

TEST(KadabraBetweenness, TinyGraphIsZero) {
    const auto g = pathGraph(2);
    KadabraBetweenness a(g, 0.1, 0.1);
    a.run();
    EXPECT_DOUBLE_EQ(a.score(0), 0.0);
    EXPECT_DOUBLE_EQ(a.score(1), 0.0);
}

TEST(PageRank, SumsToOne) {
    const auto g = generators::karateClub();
    PageRank pr(g);
    pr.run();
    double sum = 0.0;
    for (double s : pr.scores()) sum += s;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_GT(pr.iterations(), 1u);
}

TEST(PageRank, RegularGraphIsUniform) {
    // On a cycle all nodes are equivalent.
    Graph g(10);
    for (node u = 0; u < 10; ++u) g.addEdge(u, (u + 1) % 10);
    PageRank pr(g);
    pr.run();
    for (node u = 0; u < 10; ++u) EXPECT_NEAR(pr.score(u), 0.1, 1e-9);
}

TEST(PageRank, SizeInvariantNormalization) {
    // Berberich-style scores: uniform == 1.0 regardless of n.
    for (count n : {10u, 50u}) {
        Graph g(n);
        for (node u = 0; u < n; ++u) g.addEdge(u, (u + 1) % static_cast<node>(n));
        PageRank pr(g, 0.85, 1e-10, 300, PageRank::Norm::SizeInvariant);
        pr.run();
        for (node u = 0; u < n; ++u) EXPECT_NEAR(pr.score(u), 1.0, 1e-6);
    }
}

TEST(PageRank, HubHasHighestScore) {
    const auto g = generators::karateClub();
    PageRank pr(g);
    pr.run();
    EXPECT_EQ(pr.ranking()[0].first, 33u);
}

TEST(PageRank, HandlesIsolatedNodes) {
    Graph g(3);
    g.addEdge(0, 1);
    PageRank pr(g);
    pr.run();
    double sum = 0.0;
    for (double s : pr.scores()) sum += s;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_GT(pr.score(2), 0.0);
}

TEST(PageRank, InvalidDampingThrows) {
    const auto g = pathGraph(3);
    EXPECT_THROW(PageRank(g, 0.0), std::invalid_argument);
    EXPECT_THROW(PageRank(g, 1.0), std::invalid_argument);
}

TEST(Eigenvector, StarCenterDominates) {
    const auto g = starGraph(8);
    EigenvectorCentrality ev(g);
    ev.run();
    for (node u = 1; u <= 8; ++u) {
        EXPECT_GT(ev.score(0), ev.score(u));
        EXPECT_NEAR(ev.score(u), ev.score(1), 1e-9); // leaves symmetric
    }
    // Unit L2 norm.
    double norm = 0.0;
    for (double s : ev.scores()) norm += s * s;
    EXPECT_NEAR(norm, 1.0, 1e-9);
}

TEST(Eigenvector, CompleteGraphUniform) {
    const auto g = generators::erdosRenyi(6, 1.0);
    EigenvectorCentrality ev(g);
    ev.run();
    for (node u = 0; u < 6; ++u) EXPECT_NEAR(ev.score(u), 1.0 / std::sqrt(6.0), 1e-9);
}

TEST(Eigenvector, EdgelessGraphAllZero) {
    Graph g(4);
    EigenvectorCentrality ev(g);
    ev.run();
    for (node u = 0; u < 4; ++u) EXPECT_DOUBLE_EQ(ev.score(u), 0.0);
}

TEST(Katz, AutoAlphaConverges) {
    const auto g = generators::karateClub();
    KatzCentrality katz(g);
    katz.run();
    EXPECT_GT(katz.effectiveAlpha(), 0.0);
    EXPECT_LT(katz.effectiveAlpha(), 1.0);
    // Katz > beta for any node with neighbors.
    for (node u = 0; u < 34; ++u) EXPECT_GT(katz.score(u), 1.0);
    // Hub ordering: 33 has the largest degree and the densest neighborhood.
    EXPECT_EQ(katz.ranking()[0].first, 33u);
}

TEST(Katz, IsolatedNodeGetsBeta) {
    Graph g(3);
    g.addEdge(0, 1);
    KatzCentrality katz(g, 0.1, 2.0);
    katz.run();
    EXPECT_NEAR(katz.score(2), 2.0, 1e-9);
}

TEST(CoreDecomposition, CompleteGraph) {
    const auto g = generators::erdosRenyi(7, 1.0);
    CoreDecomposition core(g);
    core.run();
    EXPECT_EQ(core.maxCore(), 6u);
    for (node u = 0; u < 7; ++u) EXPECT_DOUBLE_EQ(core.score(u), 6.0);
}

TEST(CoreDecomposition, PathGraphIsOneCore) {
    const auto g = pathGraph(10);
    CoreDecomposition core(g);
    core.run();
    EXPECT_EQ(core.maxCore(), 1u);
}

TEST(CoreDecomposition, CliqueWithTail) {
    // K4 with a pendant path: clique nodes core 3, path nodes core 1.
    Graph g(6);
    for (node u = 0; u < 4; ++u) {
        for (node v = u + 1; v < 4; ++v) g.addEdge(u, v);
    }
    g.addEdge(3, 4);
    g.addEdge(4, 5);
    CoreDecomposition core(g);
    core.run();
    EXPECT_DOUBLE_EQ(core.score(0), 3.0);
    EXPECT_DOUBLE_EQ(core.score(3), 3.0);
    EXPECT_DOUBLE_EQ(core.score(4), 1.0);
    EXPECT_DOUBLE_EQ(core.score(5), 1.0);
    EXPECT_EQ(core.maxCore(), 3u);
}

TEST(CoreDecomposition, KarateMaxCoreIsFour) {
    const auto g = generators::karateClub();
    CoreDecomposition core(g);
    core.run();
    EXPECT_EQ(core.maxCore(), 4u); // known value for Zachary's karate club
}

} // namespace
} // namespace rinkit
