#include "src/viz/measures.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/obs/trace.hpp"

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

namespace rinkit::viz {

const std::vector<Measure>& allMeasures() {
    static const std::vector<Measure> measures = {
        Measure::Degree,          Measure::Closeness,
        Measure::HarmonicCloseness, Measure::Betweenness,
        Measure::PageRank,        Measure::Eigenvector,
        Measure::Katz,            Measure::CoreNumber,
        Measure::LocalClustering,
        Measure::PlmCommunities,  Measure::LeidenCommunities,
        Measure::MapEquationCommunities, Measure::PlpCommunities,
    };
    return measures;
}

std::string measureName(Measure m) {
    switch (m) {
    case Measure::Degree: return "Degree";
    case Measure::Closeness: return "Closeness";
    case Measure::HarmonicCloseness: return "Harmonic closeness";
    case Measure::Betweenness: return "Betweenness";
    case Measure::PageRank: return "PageRank";
    case Measure::Eigenvector: return "Eigenvector";
    case Measure::Katz: return "Katz";
    case Measure::CoreNumber: return "Core number";
    case Measure::LocalClustering: return "Local clustering";
    case Measure::PlmCommunities: return "PLM communities";
    case Measure::LeidenCommunities: return "Leiden communities";
    case Measure::MapEquationCommunities: return "Map-equation communities";
    case Measure::PlpCommunities: return "PLP communities";
    }
    throw std::invalid_argument("measureName: unknown measure");
}

bool isCommunityMeasure(Measure m) {
    switch (m) {
    case Measure::PlmCommunities:
    case Measure::LeidenCommunities:
    case Measure::MapEquationCommunities:
    case Measure::PlpCommunities: return true;
    default: return false;
    }
}

const char* tierName(ResolutionTier t) {
    switch (t) {
    case ResolutionTier::Exact: return "exact";
    case ResolutionTier::Dynamic: return "dynamic";
    case ResolutionTier::Approx: return "approx";
    case ResolutionTier::Stale: return "stale";
    }
    throw std::invalid_argument("tierName: unknown tier");
}

namespace {

/// Drives any kernel — centrality or detector — through the canonical
/// run(const CsrView&) entry and reads the common per-node result shape.
template <typename Kernel>
std::vector<double> runOn(Kernel&& kernel, const CsrView& v) {
    kernel.run(v);
    return kernel.scores();
}

} // namespace

std::vector<double> computeMeasure(const Graph& g, const CsrView& v, Measure m) {
    switch (m) {
    case Measure::Degree: return runOn(DegreeCentrality(g), v);
    case Measure::Closeness: return runOn(ClosenessCentrality(g), v);
    case Measure::HarmonicCloseness:
        return runOn(ClosenessCentrality(g, ClosenessCentrality::Variant::Harmonic), v);
    case Measure::Betweenness: return runOn(Betweenness(g, true), v);
    case Measure::PageRank:
        return runOn(PageRank(g, 0.85, 1e-9, 200, PageRank::Norm::SizeInvariant), v);
    case Measure::Eigenvector: return runOn(EigenvectorCentrality(g), v);
    case Measure::Katz: return runOn(KatzCentrality(g), v);
    case Measure::CoreNumber: return runOn(CoreDecomposition(g), v);
    case Measure::LocalClustering: return runOn(LocalClusteringCoefficient(g), v);
    case Measure::PlmCommunities: return runOn(Plm(g, true), v);
    case Measure::LeidenCommunities: return runOn(ParallelLeiden(g), v);
    case Measure::MapEquationCommunities: return runOn(LouvainMapEquation(g), v);
    case Measure::PlpCommunities: return runOn(Plp(g), v);
    }
    throw std::invalid_argument("computeMeasure: unknown measure");
}

void MeasureEngine::storeExact(const Graph& g, Measure m, std::vector<double> scores) {
    if (scores.size() != g.numberOfNodes())
        throw std::invalid_argument("MeasureEngine: storeExact size mismatch");
    Slot& ex = exact_[static_cast<size_t>(m)];
    ex.scores = std::move(scores);
    ex.version = g.version();
    ex.g = &g;
    ex.valid = true;
    ex.eps = 0.0;
    ex.delta = 0.0;
    ex.samples = 0;
}

const std::vector<double>& MeasureEngine::scores(const Graph& g, Measure m,
                                                 const Request& req,
                                                 ResultInfo* info) {
    obs::ScopedSpan span("engine.scores");
    span.attr("measure", measureName(m));
    ResultInfo local;
    ResultInfo& out = info ? *info : local;
    out = ResultInfo{};

    // A degraded request without its own tolerance still gets a bound: the
    // ladder's Approx rung means "sampled, with stated error", never
    // "whatever is lying around".
    const double effTol = req.degrade == DegradeLevel::None
                              ? req.tolerance
                              : std::max(req.tolerance, kDegradeEpsilon);

    const size_t mi = static_cast<size_t>(m);
    Slot& ex = exact_[mi];
    Slot& ap = approx_[mi];
    const std::uint64_t ver = g.version();
    const count n = g.numberOfNodes();

    auto finish = [&](const std::vector<double>& s) -> const std::vector<double>& {
        span.attr("tier", tierName(out.tier));
        span.attr("cache_hit", out.cacheHit);
        if (out.epsilon > 0.0) span.attr("eps", out.epsilon);
        if (out.samples > 0) span.attr("samples", out.samples);
        return s;
    };
    auto serveSlot = [&](Slot& s, ResolutionTier tier) -> const std::vector<double>& {
        out.tier = tier;
        out.cacheHit = true;
        out.epsilon = s.eps;
        out.delta = s.delta;
        out.samples = s.samples;
        return finish(s.scores);
    };

    // Fresh exact always serves — including tolerance > 0
    // requests (exact trivially satisfies any bound).
    if (ex.valid && ex.g == &g && ex.version == ver) return serveSlot(ex, ResolutionTier::Exact);
    // Fresh approximate serves iff its guarantee is tight enough.
    if (effTol > 0.0 && ap.valid && ap.g == &g && ap.version == ver && ap.eps <= effTol)
        return serveSlot(ap, ResolutionTier::Approx);

    // Last rung: under Stale degradation a right-sized result for an older
    // version beats any recomputation.
    if (req.degrade == DegradeLevel::Stale) {
        for (Slot* s : {&ex, &ap}) {
            if (s->valid && s->g == &g && s->scores.size() == n &&
                (s->eps == 0.0 || s->eps <= effTol)) {
                span.attr("stale", true);
                return serveSlot(*s, ResolutionTier::Stale);
            }
        }
    }

    const CsrView& v = snapshot_.get(g);

    // Sampled betweenness with an explicit (epsilon, delta): a cold
    // KADABRA run. Every other measure falls through to the exact path.
    if (effTol > 0.0 && m == Measure::Betweenness) {
        obs::ScopedSpan apx("engine.approx");
        apx.attr("measure", measureName(m));
        KadabraBetweenness kb(g, effTol, kApproxDelta, opts_.seed);
        kb.run(v);
        ap.scores = kb.scores();
        ap.eps = kb.achievedEpsilon();
        ap.samples = kb.numberOfSamples();
        ap.delta = kApproxDelta;
        ap.version = ver;
        ap.g = &g;
        ap.valid = true;
        out.tier = ResolutionTier::Approx;
        out.cacheHit = false;
        out.epsilon = ap.eps;
        out.delta = ap.delta;
        out.samples = ap.samples;
        span.attr("approx", true);
        return finish(ap.scores);
    }

    // Exact recompute from scratch.
    ex.scores = computeMeasure(g, v, m);
    ex.version = ver;
    ex.g = &g;
    ex.valid = true;
    ex.eps = ex.delta = 0.0;
    ex.samples = 0;
    out.tier = ResolutionTier::Exact;
    out.cacheHit = false;
    return finish(ex.scores);
}

void MeasureEngine::reset() {
    snapshot_.reset();
    for (auto& entry : exact_) entry = Slot{};
    for (auto& entry : approx_) entry = Slot{};
}

} // namespace rinkit::viz
