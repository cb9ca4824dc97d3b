// Property-based tests: randomized operation sequences checked against a
// trivially correct reference model, plus cross-algorithm invariants that
// must hold on any input.
#include <gtest/gtest.h>

#include <omp.h>

#include <set>

#include "src/centrality/betweenness.hpp"
#include "src/centrality/closeness.hpp"
#include "src/centrality/core_decomposition.hpp"
#include "src/centrality/degree.hpp"
#include "src/centrality/eigenvector.hpp"
#include "src/centrality/kadabra.hpp"
#include "src/centrality/local_clustering.hpp"
#include "src/centrality/pagerank.hpp"
#include "src/community/leiden.hpp"
#include "src/community/mapequation.hpp"
#include "src/community/plm.hpp"
#include "src/community/plp.hpp"
#include "src/community/quality.hpp"
#include "src/community/similarity.hpp"
#include "src/components/bfs.hpp"
#include "src/components/connected_components.hpp"
#include "src/components/csr_bfs.hpp"
#include "src/graph/csr_view.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/graph.hpp"
#include "src/viz/measures.hpp"
#include "src/md/synthetic.hpp"
#include "src/md/trajectory.hpp"
#include "src/rin/dynamic_rin.hpp"
#include "src/support/random.hpp"

namespace rinkit {
namespace {

// ---------------------------------------------------------------------------
// Fuzz: dynamic Graph vs a reference edge-set model.
// ---------------------------------------------------------------------------

class GraphFuzzP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphFuzzP, RandomEditScriptMatchesReferenceModel) {
    Rng rng(GetParam());
    const count n = 30;
    Graph g(n);
    std::set<std::pair<node, node>> model;

    for (int step = 0; step < 2000; ++step) {
        const node u = static_cast<node>(rng.pick(n));
        node v = static_cast<node>(rng.pick(n));
        if (u == v) continue;
        const auto key = std::minmax(u, v);
        const std::pair<node, node> e{key.first, key.second};
        if (rng.chance(0.6)) {
            EXPECT_EQ(g.addEdge(u, v), model.insert(e).second);
        } else {
            EXPECT_EQ(g.removeEdge(u, v), model.erase(e) > 0);
        }
    }

    // Full-state agreement.
    EXPECT_EQ(g.numberOfEdges(), model.size());
    for (node u = 0; u < n; ++u) {
        for (node v = u + 1; v < n; ++v) {
            EXPECT_EQ(g.hasEdge(u, v), model.count({u, v}) > 0);
        }
    }
    // Adjacency symmetric + sorted.
    g.forNodes([&](node u) {
        const auto nb = g.neighbors(u);
        EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
        for (node v : nb) {
            const auto nv = g.neighbors(v);
            EXPECT_TRUE(std::binary_search(nv.begin(), nv.end(), u));
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphFuzzP, ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Cross-algorithm invariants on random graphs.
// ---------------------------------------------------------------------------

class RandomGraphP : public ::testing::TestWithParam<std::uint64_t> {
public:
    Graph make() const {
        Rng rng(GetParam());
        return generators::erdosRenyi(80, 0.03 + 0.05 * rng.real01(), GetParam());
    }
};

TEST_P(RandomGraphP, BetweennessSumEqualsPairDistanceExcess) {
    // Sum of betweenness = sum over connected pairs of (d(s,t) - 1):
    // every interior vertex of a shortest path contributes exactly once in
    // expectation over the path distribution.
    const auto g = make();
    Betweenness b(g);
    b.run();
    double bcSum = 0.0;
    for (double s : b.scores()) bcSum += s;

    double excess = 0.0;
    for (node s = 0; s < g.numberOfNodes(); ++s) {
        Bfs bfs(g, s);
        bfs.run();
        for (node t = s + 1; t < g.numberOfNodes(); ++t) {
            const double d = bfs.distance(t);
            if (d != infdist && d >= 1.0) excess += d - 1.0;
        }
    }
    EXPECT_NEAR(bcSum, excess, 1e-6);
}

TEST_P(RandomGraphP, DegreeOneNodesHaveZeroBetweenness) {
    const auto g = make();
    Betweenness b(g);
    b.run();
    g.forNodes([&](node u) {
        if (g.degree(u) <= 1) EXPECT_DOUBLE_EQ(b.score(u), 0.0);
    });
}

TEST_P(RandomGraphP, PageRankMassConservedAndPositive) {
    const auto g = make();
    PageRank pr(g, 0.85, 1e-12, 500);
    pr.run();
    double sum = 0.0;
    for (double s : pr.scores()) {
        EXPECT_GT(s, 0.0);
        sum += s;
    }
    EXPECT_NEAR(sum, 1.0, 1e-8);
}

TEST_P(RandomGraphP, ClosenessBoundedByOne) {
    const auto g = make();
    ClosenessCentrality c(g);
    c.run();
    for (double s : c.scores()) {
        EXPECT_GE(s, 0.0);
        EXPECT_LE(s, 1.0 + 1e-12);
    }
}

TEST_P(RandomGraphP, ComponentsPartitionTheGraph) {
    const auto g = make();
    ConnectedComponents cc(g);
    cc.run();
    // Every edge stays within one component; sizes sum to n.
    g.forEdges([&](node u, node v) {
        EXPECT_EQ(cc.componentOf(u), cc.componentOf(v));
    });
    count total = 0;
    for (count s : cc.componentSizes()) total += s;
    EXPECT_EQ(total, g.numberOfNodes());
    // BFS reachability defines the same equivalence.
    Bfs bfs(g, 0);
    bfs.run();
    for (node u = 0; u < g.numberOfNodes(); ++u) {
        EXPECT_EQ(bfs.distance(u) != infdist, cc.componentOf(u) == cc.componentOf(0));
    }
}

TEST_P(RandomGraphP, PlmPartitionValidAndNoWorseThanTrivial) {
    const auto g = make();
    Plm plm(g);
    plm.run();
    const auto& p = plm.getPartition();
    EXPECT_EQ(p.numberOfElements(), g.numberOfNodes());
    for (node u = 0; u < g.numberOfNodes(); ++u) {
        EXPECT_LT(p[u], p.numberOfSubsets());
    }
    Partition allInOne(g.numberOfNodes());
    EXPECT_GE(modularity(p, g) + 1e-12, modularity(allInOne, g));
}

TEST_P(RandomGraphP, NmiSelfIdentityAndBounds) {
    const auto g = make();
    Plm plm(g);
    plm.run();
    const auto& p = plm.getPartition();
    EXPECT_NEAR(nmi(p, p), 1.0, 1e-12);
    Partition singletons(g.numberOfNodes());
    singletons.allToSingletons();
    const double v = nmi(p, singletons);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphP, ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// Fuzz: DynamicRin under random slider storms stays equal to fresh builds.
// ---------------------------------------------------------------------------

class WidgetFuzzP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WidgetFuzzP, RandomSliderSequenceKeepsGraphExact) {
    Rng rng(GetParam());
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = 8;
    gen.unfoldingEvents = 1;
    gen.seed = GetParam();
    const auto traj = md::TrajectoryGenerator(gen).generate(md::villinHeadpiece());

    rin::DynamicRin dyn(traj, rin::DistanceCriterion::MinimumAtomDistance, 5.0);
    const rin::RinBuilder reference(rin::DistanceCriterion::MinimumAtomDistance);

    for (int step = 0; step < 25; ++step) {
        if (rng.chance(0.5)) {
            dyn.setCutoff(4.0 + 4.0 * rng.real01());
        } else {
            dyn.setFrame(static_cast<index>(rng.pick(traj.frameCount())));
        }
        const auto fresh =
            reference.build(traj.proteinAtFrame(dyn.frame()), dyn.cutoff());
        ASSERT_TRUE(dyn.graph() == fresh)
            << "step " << step << " frame " << dyn.frame() << " cutoff " << dyn.cutoff();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WidgetFuzzP, ::testing::Values(7, 17, 27));

// ---------------------------------------------------------------------------
// RIN invariants across the full (criterion, cutoff) grid.
// ---------------------------------------------------------------------------

struct RinGridCase {
    rin::DistanceCriterion criterion;
    double cutoff;
};

class RinGridP : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(RinGridP, RinIsSimpleSymmetricAndCutoffConsistent) {
    const auto criterion = static_cast<rin::DistanceCriterion>(std::get<0>(GetParam()));
    const double cutoff = std::get<1>(GetParam());
    const auto protein = md::alpha3D();
    const rin::RinBuilder builder(criterion);
    const auto g = builder.build(protein, cutoff);

    EXPECT_EQ(g.numberOfNodes(), protein.size());
    // Every reported contact obeys the cutoff under its criterion.
    for (const auto& c : builder.contacts(protein, cutoff)) {
        EXPECT_LE(c.distance, cutoff + 1e-9);
        EXPECT_NE(c.u, c.v);
    }
    // Edges agree with contacts.
    EXPECT_EQ(g.numberOfEdges(), builder.contacts(protein, cutoff).size());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RinGridP,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(4.0, 4.5, 5.5, 6.5, 7.5, 8.5)));

// ---------------------------------------------------------------------------
// Fuzz: CSR snapshots under random edge storms stay equal to fresh builds.
// ---------------------------------------------------------------------------

class CsrStormP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrStormP, SnapshotByteIdenticalToFreshBuildAfterEdits) {
    Rng rng(GetParam());
    for (const bool weighted : {false, true}) {
        const count n = 40;
        Graph g(n, weighted);
        CsrSnapshot snap;
        for (int step = 0; step < 1500; ++step) {
            const node u = static_cast<node>(rng.pick(n));
            node v = static_cast<node>(rng.pick(n));
            if (u == v) continue;
            if (rng.chance(0.55)) {
                g.addEdge(u, v, weighted ? 0.5 + rng.real01() : 1.0);
            } else if (weighted && g.hasEdge(u, v) && rng.chance(0.3)) {
                g.setWeight(u, v, 0.5 + rng.real01());
            } else {
                g.removeEdge(u, v);
            }
            // Refresh the incremental-reuse snapshot at random points in
            // the storm; it must always equal a from-scratch build.
            if (rng.chance(0.1)) {
                EXPECT_TRUE(snap.get(g) == CsrView::fromGraph(g)) << "step " << step;
            }
        }
        EXPECT_TRUE(snap.get(g) == CsrView::fromGraph(g));
        // Two builds of the same state are deterministic.
        EXPECT_TRUE(CsrView::fromGraph(g) == CsrView::fromGraph(g));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrStormP, ::testing::Values(6, 16, 26));

// ---------------------------------------------------------------------------
// Kernel equivalence: every kernel must score identically whether it is
// driven through the convenience run() (owned, lazily refreshed snapshot)
// or the canonical run(CsrView) entry with a shared snapshot — i.e. the
// engine's shared snapshot changes nothing.
// ---------------------------------------------------------------------------

template <typename Kernel, typename... Args>
void expectOwnedEqualsBorrowed(const Graph& g, const CsrView& v, const char* name,
                               Args&&... args) {
    Kernel owned(g, args...);
    owned.run();
    Kernel borrowed(g, args...);
    borrowed.run(v);
    const auto ownScores = owned.scores();
    const auto borrowedScores = borrowed.scores();
    ASSERT_EQ(ownScores.size(), borrowedScores.size()) << name;
    for (count i = 0; i < ownScores.size(); ++i) {
        EXPECT_NEAR(ownScores[i], borrowedScores[i], 1e-9) << name << " node " << i;
    }
}

class KernelEquivalenceP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelEquivalenceP, OwnedAndBorrowedSnapshotsScoreIdentically) {
    const auto g = generators::erdosRenyi(80, 0.04, GetParam());
    const auto v = CsrView::fromGraph(g);

    // Community detectors move nodes under OpenMP atomics, which is
    // nondeterministic across thread counts; pin to one thread so both
    // paths see the same move order.
    const int threadsBefore = omp_get_max_threads();
    omp_set_num_threads(1);
    expectOwnedEqualsBorrowed<DegreeCentrality>(g, v, "Degree", true);
    expectOwnedEqualsBorrowed<ClosenessCentrality>(g, v, "Closeness");
    expectOwnedEqualsBorrowed<ClosenessCentrality>(
        g, v, "Harmonic", ClosenessCentrality::Variant::Harmonic);
    expectOwnedEqualsBorrowed<Betweenness>(g, v, "Betweenness", true);
    expectOwnedEqualsBorrowed<KadabraBetweenness>(g, v, "KadabraBetweenness", 0.1,
                                                  0.1, std::uint64_t{7});
    expectOwnedEqualsBorrowed<PageRank>(g, v, "PageRank");
    expectOwnedEqualsBorrowed<EigenvectorCentrality>(g, v, "Eigenvector");
    expectOwnedEqualsBorrowed<KatzCentrality>(g, v, "Katz");
    expectOwnedEqualsBorrowed<CoreDecomposition>(g, v, "CoreNumber");
    expectOwnedEqualsBorrowed<LocalClusteringCoefficient>(g, v, "LocalClustering");
    expectOwnedEqualsBorrowed<Plm>(g, v, "Plm", true);
    expectOwnedEqualsBorrowed<ParallelLeiden>(g, v, "Leiden");
    expectOwnedEqualsBorrowed<LouvainMapEquation>(g, v, "MapEquation");
    expectOwnedEqualsBorrowed<Plp>(g, v, "Plp");
    omp_set_num_threads(threadsBefore);
}

TEST_P(KernelEquivalenceP, CsrBfsMatchesGraphBfs) {
    const auto g = generators::erdosRenyi(120, 0.03, GetParam());
    const auto v = CsrView::fromGraph(g);
    Bfs ref(g, 0);
    CsrBfs bfs(v); // one reusable instance: O(reached) reset must be sound
    for (node s = 0; s < g.numberOfNodes(); s += 7) {
        ref.setSource(s);
        ref.run();
        bfs.run(s);
        EXPECT_EQ(bfs.reached(), ref.reached());
        for (node u = 0; u < g.numberOfNodes(); ++u) {
            if (ref.distance(u) == infdist) {
                EXPECT_EQ(bfs.levelOf(u), CsrBfs::unreachedLevel);
            } else {
                EXPECT_EQ(static_cast<double>(bfs.levelOf(u)), ref.distance(u));
                EXPECT_DOUBLE_EQ(bfs.sigma()[u], ref.numberOfPaths()[u]);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelEquivalenceP, ::testing::Values(11, 22, 33, 44));

} // namespace
} // namespace rinkit
