#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/csr_view.hpp"
#include "src/graph/graph.hpp"

namespace rinkit::viz {

/// The network measures the widget's measure slider offers ([R1]): the
/// centralities and community detectors of the paper's Figs. 6-8, computed
/// through one uniform interface so that the GUI (and the benches) can
/// iterate over them.
enum class Measure {
    Degree,
    Closeness,
    HarmonicCloseness,
    Betweenness,
    PageRank,
    Eigenvector,
    Katz,
    CoreNumber,
    LocalClustering,
    PlmCommunities,
    LeidenCommunities,
    MapEquationCommunities,
    PlpCommunities,
};

inline constexpr std::size_t kNumMeasures = 13;

/// All measures in menu order.
const std::vector<Measure>& allMeasures();

/// Human-readable name ("Closeness", "PLM communities", ...).
std::string measureName(Measure m);

/// True for community detectors (scores are categorical subset ids and
/// should be colored with the categorical palette).
bool isCommunityMeasure(Measure m);

/// Computes per-node scores of @p m by driving the measure's kernel
/// through its canonical `run(const CsrView&)` entry on @p view (a
/// snapshot of @p g). For community measures the score is the (compacted)
/// community id. This is the single measure-to-kernel adaptor; everything
/// that computes a measure — engine, benches, tests — goes through it.
std::vector<double> computeMeasure(const Graph& g, const CsrView& view, Measure m);

/// How far the serving layer allows a result to deviate from fresh-exact.
/// The SessionService overload ladder walks None -> Approx -> Stale:
/// "approximate with a stated error bound" is preferred over "exact but for
/// an old graph", because a bounded error on the current frame is more
/// useful than an unbounded one from the past.
enum class DegradeLevel { None, Approx, Stale };

/// How a result was actually produced — the engine's two resolution paths
/// (plus the stale-serve escape hatch). Reported per request so the tier is
/// visible in span attributes, metrics, and session recordings.
enum class ResolutionTier {
    Exact,   ///< fresh exact: cache hit or full recompute
    /// Never produced. Kept only so the frozen bench/cycle compiles; ROADMAP
    /// item 1 removes it.
    Dynamic,
    Approx,  ///< sampled, with an (epsilon, delta) guarantee
    Stale,   ///< exact or approx, but for an older graph version
};

const char* tierName(ResolutionTier t);

/// The widget session's measure engine: one shared CSR snapshot plus a
/// per-measure result cache, both keyed by Graph::version(). Like the
/// paper's widget, every read the cache cannot serve runs a kernel from
/// scratch; there is no diff-driven state to maintain.
///
/// Every request resolves through one of two paths:
///
///  1. *Exact* — switching the measure on an unchanged graph is an O(1)
///     lookup; a miss recomputes through computeMeasure(). Exact and
///     approximate results live in separate slots keyed by (measure,
///     version, epsilon), so an exact read never serves a sampled result
///     silently, and vice versa.
///  2. *Sampled approximation* — when the caller states an error tolerance
///     (Request::tolerance) or the serving layer degrades to
///     DegradeLevel::Approx, betweenness runs a cold KadabraBetweenness
///     (adaptive sampling), reporting the (epsilon, delta) actually
///     achieved in ResultInfo. Every other measure stays exact.
///
/// DegradeLevel::Stale additionally allows serving a right-sized result for
/// an older version — the last rung of the ladder, kept from the original
/// latest-wins design.
class MeasureEngine {
public:
    struct Options {
        /// Ignored. Kept only so the frozen bench/cycle compiles; ROADMAP
        /// item 1 removes it.
        bool dynamicMeasures = true;
        /// Ignored. Kept only so the frozen bench/cycle compiles; ROADMAP
        /// item 1 removes it.
        count dynStateMaxNodes = 1536;
        std::uint64_t seed = 1;
    };

    /// Error bound a degraded request gets when it stated no tolerance.
    static constexpr double kDegradeEpsilon = 0.1;
    /// Failure probability of every sampled result's bound.
    static constexpr double kApproxDelta = 0.1;

    /// What the caller is willing to accept for this read.
    struct Request {
        /// 0 demands exact; > 0 permits sampled results whose guaranteed
        /// additive error is <= tolerance.
        double tolerance = 0.0;
        DegradeLevel degrade = DegradeLevel::None;
    };

    /// What the engine actually did — threaded into span attributes,
    /// serve::MetricsRegistry counters, and the session recorder.
    struct ResultInfo {
        ResolutionTier tier = ResolutionTier::Exact;
        double epsilon = 0.0; ///< achieved additive error bound (0 = exact)
        double delta = 0.0;   ///< failure probability of that bound
        count samples = 0;    ///< samples drawn (0 for exact tiers)
        bool cacheHit = false;
    };

    MeasureEngine() = default;
    explicit MeasureEngine(const Options& opts) : opts_(opts) {}

    /// Scores of @p m on @p g under @p req; @p info (if non-null) reports
    /// the resolution tier and achieved bounds.
    const std::vector<double>& scores(const Graph& g, Measure m, const Request& req,
                                      ResultInfo* info = nullptr);

    /// Installs an externally computed *exact* result for @p m at @p g's
    /// current version into the exact cache slot — the speculative
    /// precompute adoption hook. The caller guarantees @p scores equals
    /// what an exact recompute on @p g would produce (the speculation ran
    /// computeMeasure on an identical edge set); the next scores() read at
    /// this version is then an O(1) cached-exact hit.
    void storeExact(const Graph& g, Measure m, std::vector<double> scores);

    /// No-op: the engine keeps no diff-driven state. Kept only so the
    /// frozen bench/cycle compiles; ROADMAP item 1 removes it.
    void noteDiff(const Graph&, std::uint64_t,
                  const std::vector<std::pair<node, node>>&,
                  const std::vector<std::pair<node, node>>&) {}

    /// Drops the snapshot and every cached result.
    void reset();

    const Options& options() const { return opts_; }

private:
    struct Slot {
        std::vector<double> scores;
        std::uint64_t version = 0;
        const Graph* g = nullptr;
        bool valid = false;
        double eps = 0.0;   ///< guaranteed additive error (0 = exact)
        double delta = 0.0;
        count samples = 0;
    };

    Options opts_{};
    CsrSnapshot snapshot_;
    std::array<Slot, kNumMeasures> exact_{};
    std::array<Slot, kNumMeasures> approx_{};
};

} // namespace rinkit::viz
