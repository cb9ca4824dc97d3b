#pragma once

#include <cstdint>
#include <vector>

#include "src/dyn/dyn_bfs.hpp"
#include "src/dyn/edge_batch.hpp"
#include "src/graph/csr_view.hpp"

namespace rinkit::dyn {

/// Diff-maintained KADABRA-style approximate betweenness (after Bergamini &
/// Meyerhenke's fully-dynamic RK estimator, reworked around the engine's
/// batch diffs and level matrix).
///
/// The static sampler draws T uniform (s, t) pairs, one uniform shortest
/// s-t path each, and scores every vertex by the fraction of sampled paths
/// it sits inside. This class keeps that sample set *alive* across edge
/// batches instead of redrawing it per graph version:
///
///  - An n x n level matrix (one BFS row per source) is repaired per
///    batch by LevelRepairer. The matrix doubles as a distance oracle:
///    d(s,x) and d(x,t) are O(1) lookups.
///  - A stored path for pair (s, t) stays a valid uniform sample as long
///    as the s-t shortest-path DAG did not change. That is detectable
///    exactly from the oracle: the DAG moves iff d(s,t) moved, a batch
///    edge (a, b) satisfies d(s,a) + 1 + d(b,t) = d(s,t) (removed edges
///    tested against the pre-batch rows, added edges against the repaired
///    ones), or some vertex with a changed level in row s or row t lies on
///    an old or new s-t geodesic (d(s,x) + d(x,t) = d(s,t)). Everything is
///    O(1) per (sample, change) — no traversal.
///  - Only flagged samples are redrawn, and redrawing needs no BFS either:
///    the geodesic region {x : d(s,x) + d(x,t) = d(s,t)} is one O(n) scan
///    over two rows, path counts over that region (typically a few dozen
///    vertices) take one ascending sweep, and a weighted backward walk
///    yields a uniform shortest path — a few microseconds per resample
///    against tens for a bidirectional search.
///
/// Unflagged samples keep their path, whose conditional distribution over
/// the *current* graph's shortest paths is exactly uniform; flagged ones
/// are redrawn with fresh randomness. Samples therefore stay independent
/// and per-frame unbiased, and the a-priori Riondato-Kornaropoulos bound
/// holds at every version: update() re-derives the required sample size
/// from the maintained vertex-diameter estimate (the matrix gives exact
/// eccentricities for free) and tops the set up if the diameter grew.
/// achievedEpsilon() reports that deterministic bound — update results are
/// verified against from-scratch recomputation *within* (eps, delta), not
/// bit-equal (see DESIGN.md).
class DynKadabra {
public:
    /// From-scratch prime on @p v: builds the level matrix (one BFS per
    /// source, OpenMP over sources) and draws the full a-priori sample set
    /// through the matrix sampler.
    void init(const CsrView& v, double epsilon = 0.05, double delta = 0.1,
              std::uint64_t seed = 1);

    bool primed() const { return primed_; }
    std::uint64_t version() const { return version_; }
    count numberOfNodes() const { return n_; }

    /// Applies @p batch (diff to exactly @p v's edge set): repairs the
    /// level rows, flags the samples whose shortest-path DAG moved, and
    /// redraws only those. Requires primed() and an unchanged node count.
    void update(const CsrView& v, const EdgeBatch& batch);

    /// Scores on KadabraBetweenness's scale (fraction of sampled paths).
    std::vector<double> scores() const;

    /// Deterministic a-priori additive-error bound currently guaranteed
    /// (with probability >= 1 - delta) by the live sample set.
    double achievedEpsilon() const { return achievedEps_; }

    count numberOfSamples() const { return samples_.size(); }

    /// Samples redrawn by the last update (cost-model/metrics feedback).
    count lastResampled() const { return lastResampled_; }

    void reset();

private:
    struct Sample {
        node s = none;
        node t = none;
        std::vector<node> interior; ///< path vertices strictly between s and t
    };

    /// Epoch-stamped scratch of the matrix path sampler (geodesic region +
    /// restricted path counts); one per thread inside update().
    struct GeoScratch {
        std::vector<double> sigma;
        std::vector<std::uint32_t> stamp;
        std::uint32_t epoch = 0;
        std::vector<std::vector<node>> buckets;

        void ensure(count n) {
            if (stamp.size() < n) {
                sigma.assign(n, 0.0);
                stamp.assign(n, 0);
                epoch = 0;
            }
        }
    };

    const std::uint16_t* row(node s) const {
        return lvl_.data() + static_cast<size_t>(s) * n_;
    }

    void drawPair(count i, node& s, node& t) const;
    void samplePath(const CsrView& v, Sample& smp, std::uint64_t salt,
                    GeoScratch& w, double* cnt) const;
    void refreshBound();
    void topUp(const CsrView& v, GeoScratch& w);
    count requiredSamples() const;

    count n_ = 0;
    std::uint64_t version_ = 0;
    bool primed_ = false;
    double eps_ = 0.05;
    double delta_ = 0.1;
    std::uint64_t seed_ = 1;
    std::uint32_t epoch_ = 0; ///< update counter, salts resample randomness
    double achievedEps_ = 0.0;
    count lastResampled_ = 0;
    count vertexDiameter_ = 3;

    std::vector<std::uint16_t> lvl_; ///< n x n, row per source
    std::vector<std::uint16_t> ecc_; ///< per-source max finite level
    std::vector<Sample> samples_;
    std::vector<double> cnt_; ///< raw per-vertex path counts
};

} // namespace rinkit::dyn
