#include "src/viz/measures.hpp"

#include <algorithm>
#include <chrono>
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

double elapsedMs(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     t0)
        .count();
}

/// Tier 2 falls back to recompute when the accumulated diff exceeds this
/// fraction of the graph's edges.
constexpr double kFallbackDiffFraction = 0.15;

void feedEwma(double& ewma, double ms) {
    constexpr double kAlpha = 0.3;
    ewma = ewma < 0.0 ? ms : (1.0 - kAlpha) * ewma + kAlpha * ms;
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

bool MeasureEngine::dynPrimed(int k) const {
    switch (k) {
    case kDynCore: return dynCore_.primed();
    case kDynKadabra: return dynKad_.primed();
    }
    return false;
}

std::uint64_t MeasureEngine::dynVersion(int k) const {
    switch (k) {
    case kDynCore: return dynCore_.version();
    case kDynKadabra: return dynKad_.version();
    }
    return 0;
}

bool MeasureEngine::dynUpdateEligible(int k, const Graph& g) const {
    const DynMeta& meta = dynMeta_[static_cast<size_t>(k)];
    if (!dynPrimed(k) || !meta.chainValid || !meta.hasPending) return false;
    if (meta.target != g.version() || meta.n != g.numberOfNodes()) return false;
    if (g.numberOfNodes() > opts_.dynStateMaxNodes) return false;
    const double diff =
        static_cast<double>(meta.pendAdd.size() + meta.pendRem.size());
    const double edges = static_cast<double>(std::max<count>(g.numberOfEdges(), 1));
    if (diff > kFallbackDiffFraction * edges) return false;
    // Span-fed cost model: once updates have been observed to cost more
    // than recomputing, stop repairing until the state is re-primed.
    if (meta.ewmaDyn >= 0.0 && meta.ewmaExact >= 0.0 && meta.ewmaDyn > meta.ewmaExact)
        return false;
    return true;
}

void MeasureEngine::chainDiff(DynMeta& meta, std::uint64_t kernelVersion,
                              std::uint64_t fromVersion, std::uint64_t toVersion,
                              const std::vector<std::pair<node, node>>& added,
                              const std::vector<std::pair<node, node>>& removed) {
    const std::uint64_t base = meta.hasPending ? meta.target : kernelVersion;
    if (base != fromVersion) {
        // Version gap: a diff we never saw moved the graph. The stored
        // state can no longer be repaired; the next exact read re-primes.
        meta.chainValid = false;
        meta.hasPending = false;
        meta.pendAdd.clear();
        meta.pendRem.clear();
        return;
    }
    if (meta.hasPending) {
        dyn::composeDiff(meta.pendAdd, meta.pendRem, added, removed);
    } else {
        meta.pendAdd = added;
        meta.pendRem = removed;
    }
    meta.target = toVersion;
    meta.hasPending = true;
    meta.chainValid = true;
}

void MeasureEngine::noteDiff(const Graph& g, std::uint64_t fromVersion,
                             const std::vector<std::pair<node, node>>& added,
                             const std::vector<std::pair<node, node>>& removed) {
    if (!opts_.dynamicMeasures) return;
    const std::uint64_t to = g.version();
    for (int k = 0; k < kNumDynKernels; ++k) {
        DynMeta& meta = dynMeta_[static_cast<size_t>(k)];
        if (!dynPrimed(k)) continue;
        if (meta.n != g.numberOfNodes()) {
            meta.chainValid = false;
            meta.hasPending = false;
            meta.pendAdd.clear();
            meta.pendRem.clear();
            continue;
        }
        chainDiff(meta, dynVersion(k), fromVersion, to, added, removed);
    }
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

void MeasureEngine::invalidateDynamic() {
    dynCore_.reset();
    dynKad_.reset();
    for (auto& meta : dynMeta_) meta = DynMeta{};
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
        if (out.diffEdges > 0) span.attr("diff_edges", out.diffEdges);
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

    // Tier 1a: fresh exact always serves — including tolerance > 0
    // requests (exact trivially satisfies any bound).
    if (ex.valid && ex.g == &g && ex.version == ver) return serveSlot(ex, ResolutionTier::Exact);
    // Tier 1b: fresh approximate serves iff its guarantee is tight enough.
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
    const bool core = m == Measure::CoreNumber;

    // Tier 2: diff-driven repair of the stored core state — exact results
    // without a recompute.
    if (core && dynUpdateEligible(kDynCore, g)) {
        DynMeta& meta = dynMeta_[kDynCore];
        const count diffEdges = meta.pendAdd.size() + meta.pendRem.size();
        dyn::EdgeBatch batch{&meta.pendAdd, &meta.pendRem};
        const auto t0 = std::chrono::steady_clock::now();
        {
            obs::ScopedSpan upd("engine.dynamic_update");
            upd.attr("measure", measureName(m));
            upd.attr("diff_edges", diffEdges);
            dynCore_.update(v, batch);
        }
        feedEwma(meta.ewmaDyn, elapsedMs(t0));
        meta.hasPending = false;
        meta.pendAdd.clear();
        meta.pendRem.clear();
        ex.scores = dynCore_.scores();
        ex.version = ver;
        ex.g = &g;
        ex.valid = true;
        ex.eps = ex.delta = 0.0;
        ex.samples = 0;
        out.tier = ResolutionTier::Dynamic;
        out.cacheHit = false;
        out.diffEdges = diffEdges;
        return finish(ex.scores);
    }

    // Tier 3: sampled betweenness with an explicit (epsilon, delta). Every
    // other measure falls through to the exact tiers.
    if (effTol > 0.0 && m == Measure::Betweenness) {
        obs::ScopedSpan apx("engine.approx");
        apx.attr("measure", measureName(m));
        DynMeta& meta = dynMeta_[kDynKadabra];
        // Warm path: the maintained sample set is one small diff behind
        // and its standing bound satisfies this request — redraw only
        // the affected samples instead of sampling from scratch.
        if (dynUpdateEligible(kDynKadabra, g) && dynKad_.achievedEpsilon() <= effTol) {
            const count diffEdges = meta.pendAdd.size() + meta.pendRem.size();
            dyn::EdgeBatch batch{&meta.pendAdd, &meta.pendRem};
            const auto t0 = std::chrono::steady_clock::now();
            dynKad_.update(v, batch);
            feedEwma(meta.ewmaDyn, elapsedMs(t0));
            meta.hasPending = false;
            meta.pendAdd.clear();
            meta.pendRem.clear();
            apx.attr("diff_edges", diffEdges);
            apx.attr("resampled", dynKad_.lastResampled());
            ap.scores = dynKad_.scores();
            ap.eps = dynKad_.achievedEpsilon();
            ap.samples = dynKad_.numberOfSamples();
            out.diffEdges = diffEdges;
        } else if (opts_.dynamicMeasures && n >= 2 && n <= opts_.dynStateMaxNodes) {
            // Cold sampling doubles as the prime of the dynamic sample
            // state, like the core kernel's init.
            const auto t0 = std::chrono::steady_clock::now();
            dynKad_.init(v, effTol, kApproxDelta, opts_.seed);
            feedEwma(meta.ewmaExact, elapsedMs(t0));
            meta.chainValid = true;
            meta.hasPending = false;
            meta.pendAdd.clear();
            meta.pendRem.clear();
            meta.n = n;
            ap.scores = dynKad_.scores();
            ap.eps = dynKad_.achievedEpsilon();
            ap.samples = dynKad_.numberOfSamples();
        } else {
            KadabraBetweenness kb(g, effTol, kApproxDelta, opts_.seed);
            kb.run(v);
            ap.scores = kb.scores();
            ap.eps = kb.achievedEpsilon();
            ap.samples = kb.numberOfSamples();
        }
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

    // Tier 1 (compute): exact recompute. For CoreNumber on graphs under the
    // state cap, the recompute *is* the kernel's init — priming the repair
    // state as a side effect at the same asymptotic cost.
    const bool prime = core && opts_.dynamicMeasures && n >= 2 &&
                       n <= opts_.dynStateMaxNodes;
    const auto t0 = std::chrono::steady_clock::now();
    if (prime) {
        {
            obs::ScopedSpan init("engine.dynamic_init");
            init.attr("measure", measureName(m));
            dynCore_.init(v);
        }
        DynMeta& meta = dynMeta_[kDynCore];
        meta.chainValid = true;
        meta.hasPending = false;
        meta.pendAdd.clear();
        meta.pendRem.clear();
        meta.n = n;
        ex.scores = dynCore_.scores();
        feedEwma(meta.ewmaExact, elapsedMs(t0));
    } else {
        ex.scores = computeMeasure(g, v, m);
        if (core) feedEwma(dynMeta_[kDynCore].ewmaExact, elapsedMs(t0));
    }
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
    invalidateDynamic();
}

} // namespace rinkit::viz
