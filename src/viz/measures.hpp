#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/dyn/dyn_core.hpp"
#include "src/dyn/dyn_kadabra.hpp"
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

/// How a result was actually produced — the engine's three-tier resolution
/// (plus the stale-serve escape hatch). Reported per request so the tier is
/// visible in span attributes, metrics, and session recordings.
enum class ResolutionTier {
    Exact,   ///< fresh exact: cache hit or full recompute
    Dynamic, ///< exact, produced by diff-driven repair of stored state
    Approx,  ///< sampled, with an (epsilon, delta) guarantee
    Stale,   ///< exact or approx, but for an older graph version
};

const char* tierName(ResolutionTier t);

/// The widget session's measure engine: one shared CSR snapshot plus a
/// per-measure result cache, both keyed by Graph::version(), extended with
/// diff-driven dynamic kernels and sampling approximation.
///
/// Every request resolves through a three-tier policy:
///
///  1. *Cached exact* — switching the measure on an unchanged graph is an
///     O(1) lookup. Exact and approximate results live in separate slots
///     keyed by (measure, version, epsilon), so an exact read never serves
///     a sampled result silently, and vice versa. A miss recomputes.
///  2. *Dynamic update* — for CoreNumber the engine keeps the peeling
///     state (rinkit::dyn) primed by the last exact computation. When the
///     graph moved by a small diff (fed in via noteDiff() from
///     DynamicRin's edge lists), the state is repaired instead of
///     recomputed. A cost model (diff fraction, node cap, EWMA of observed
///     update vs recompute times) decides when repair would be slower than
///     recomputing and falls back automatically. Closeness and Harmonic
///     have no dynamic kernel: one 64-source bit-parallel BFS recompute
///     (MS-BFS) is cheaper than level-matrix repair at the churn a slider
///     tick causes. Betweenness has none either: on small-diameter RINs its
///     sigma cascades are global, so repair never beat Brandes.
///  3. *Sampled approximation* — when the caller states an error tolerance
///     (Request::tolerance) or the serving layer degrades to
///     DegradeLevel::Approx, betweenness switches to adaptive (KADABRA-
///     style) sampling, reporting the (epsilon, delta) actually achieved in
///     ResultInfo. The sample set itself is diff-maintained
///     (dyn::DynKadabra): on small diffs only the sampled paths whose
///     shortest-path DAG moved are redrawn, so a warm approx read costs a
///     fraction of a cold sampling run. Every other measure stays exact.
///
/// DegradeLevel::Stale additionally allows serving a right-sized result for
/// an older version — the last rung of the ladder, kept from the original
/// latest-wins design.
class MeasureEngine {
public:
    struct Options {
        /// Master switch for tier 2 (state priming + diff repair).
        bool dynamicMeasures = true;
        /// DynKadabra's level matrix is O(n^2); above this node count no
        /// dynamic kernel is primed.
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
        count diffEdges = 0;  ///< diff size consumed by a Dynamic update
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
    /// this version is then an O(1) cached-exact hit. Does not prime the
    /// dynamic kernels — a later cache miss falls through the normal
    /// ladder unchanged.
    void storeExact(const Graph& g, Measure m, std::vector<double> scores);

    /// Feeds the engine the edge diff that moved @p g from @p fromVersion
    /// to its current version (DynamicRin::lastAdded/lastRemoved). Diffs
    /// compose across calls; a version gap invalidates the dynamic state
    /// (next exact read re-primes it).
    void noteDiff(const Graph& g, std::uint64_t fromVersion,
                  const std::vector<std::pair<node, node>>& added,
                  const std::vector<std::pair<node, node>>& removed);

    /// Drops all dynamic state (graph rebuilt / diff unavailable).
    void invalidateDynamic();

    /// Drops the snapshot, every cached result, and all dynamic state.
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

    /// Chain bookkeeping for one dynamic kernel (the kernel itself stores
    /// its state).
    struct DynMeta {
        bool chainValid = false; ///< pending diff leads kernel -> current
        bool hasPending = false;
        std::uint64_t target = 0; ///< version the pending diff produces
        std::vector<std::pair<node, node>> pendAdd, pendRem;
        count n = 0;              ///< node count the kernel was primed on
        double ewmaDyn = -1.0;    ///< EWMA of update cost (ms)
        double ewmaExact = -1.0;  ///< EWMA of exact/prime cost (ms)
    };

    /// kDynKadabra is the sampled sibling of the exact core kernel: the
    /// approx tier's betweenness state, diff-maintained like it but served
    /// with an (epsilon, delta) bound instead of exactness.
    enum DynKernel {
        kDynCore = 0,
        kDynKadabra = 1,
    };
    static constexpr int kNumDynKernels = 2;

    void chainDiff(DynMeta& meta, std::uint64_t kernelVersion, std::uint64_t fromVersion,
                   std::uint64_t toVersion,
                   const std::vector<std::pair<node, node>>& added,
                   const std::vector<std::pair<node, node>>& removed);

    bool dynUpdateEligible(int k, const Graph& g) const;
    bool dynPrimed(int k) const;
    std::uint64_t dynVersion(int k) const;

    Options opts_{};
    CsrSnapshot snapshot_;
    std::array<Slot, kNumMeasures> exact_{};
    std::array<Slot, kNumMeasures> approx_{};

    dyn::DynCoreDecomposition dynCore_;
    dyn::DynKadabra dynKad_;
    std::array<DynMeta, kNumDynKernels> dynMeta_{};
};

} // namespace rinkit::viz
