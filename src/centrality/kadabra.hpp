#pragma once

#include <cstdint>

#include "src/centrality/centrality.hpp"

namespace rinkit {

/// Adaptive-sampling approximate betweenness (KADABRA-style, after
/// Borassi & Natale 2016).
///
/// Like the Riondato-Kornaropoulos estimator it samples uniform random
/// (s, t) pairs, draws one shortest s-t path uniformly at random, and
/// credits its interior vertices — per sample each vertex's contribution is
/// a 0/1 variable whose mean is its (pair-normalized) betweenness. Two
/// changes make it adaptive:
///
///  - Sampling is round-based with an empirical-Bernstein stopping rule:
///    after each round the confidence radius
///      r(t) = sqrt(2 vHat ln(3/d') / t) + 3 ln(3/d') / t,   d' = delta/n,
///    (vHat the largest empirical variance over vertices) is compared to
///    epsilon; sampling stops as soon as r(t) <= epsilon, typically far
///    before the fixed a-priori RK bound, which is kept as a hard cap.
///    achievedEpsilon() reports the radius actually reached.
///  - Each path is drawn by a *balanced bidirectional* BFS: frontiers grow
///    from both endpoints (cheaper side first) until the radii bracket the
///    s-t distance. Every shortest path crosses the final s-side radius L
///    exactly once, so sigma_s(u) * sigma_t(u) over the crossing vertices
///    counts s-t shortest paths exactly once each; sampling a crossing
///    vertex with that weight and walking both directions proportionally
///    to the partial path counts yields a uniform shortest path while
///    exploring a fraction of the graph per sample.
///
/// Scores are the fraction of sampled paths through each vertex;
/// viz::MeasureEngine serves them from its approx slot with the achieved
/// (epsilon, delta).
class KadabraBetweenness final : public CentralityAlgorithm {
public:
    explicit KadabraBetweenness(const Graph& g, double epsilon = 0.05,
                                double delta = 0.1, std::uint64_t seed = 1);

    /// Samples actually drawn before the stopping rule fired. Valid after
    /// run().
    count numberOfSamples() const { return samples_; }

    /// Confidence radius at the stop: the additive error actually
    /// guaranteed (with probability >= 1 - delta). Valid after run().
    double achievedEpsilon() const { return achievedEps_; }

private:
    void runImpl(const CsrView& view) override;

    double epsilon_;
    double delta_;
    std::uint64_t seed_;
    count samples_ = 0;
    double achievedEps_ = 0.0;
};

} // namespace rinkit
