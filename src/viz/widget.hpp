#pragma once

#include <array>
#include <functional>
#include <optional>
#include <string>

#include "src/layout/maxent_stress.hpp"
#include "src/rin/dynamic_rin.hpp"
#include "src/viz/client_model.hpp"
#include "src/viz/measures.hpp"
#include "src/viz/predictor.hpp"
#include "src/viz/scene.hpp"
#include "src/wire/scene_frame.hpp"

namespace rinkit::viz {

/// Payload format the widget ships to its (simulated) client.
enum class WireFormat {
    Json,   ///< full plotly figure JSON per update (PR 5 behavior, default)
    Binary, ///< rinkit::wire keyframe/delta frames (quantized typed arrays)
};

/// Server-side state machine of the paper's RIN exploration widget
/// (Fig. 5): dual 3D view (protein-based layout | Maxent-Stress layout),
/// three sliders (trajectory frame, distance cutoff, network measure), a
/// score buffer for delta visualization, and auto/on-demand recomputation.
///
/// Every slider event runs the full update cycle the paper instruments:
///   network update -> layout generation -> measure recomputation ->
///   scene build -> JSON serialization -> (simulated) client update,
/// and returns the per-phase wall-clock times — the quantities plotted in
/// Figs. 6-8.
/// RinWidget configuration. Namespace-scope (not nested) so its defaults
/// can serve the widget's single defaulted-Options constructor.
struct RinWidgetOptions {
    rin::DistanceCriterion criterion = rin::DistanceCriterion::MinimumAtomDistance;
    double initialCutoff = 4.5;
    index initialFrame = 0;
    std::optional<Measure> initialMeasure = Measure::Closeness;
    Palette palette = Palette::Spectral;
    bool autoRecompute = true; ///< recompute the measure on network change
    /// Maxent-Stress iterations per warm-started update. Cold layouts
    /// (first frame, or a changed node count) always run the multilevel
    /// V-cycle solver (coarsen / solve coarsest / prolong+refine).
    count layoutIterations = 30;
    /// Iteration cap when the layout is seeded with the previous
    /// result (every update after the first): the seed is already
    /// near equilibrium, so a short polish suffices. 0 disables.
    count layoutWarmStartIterations = 10;
    std::uint64_t seed = 1;
    /// Payload format shipped to the client. Json keeps the serialized
    /// figure byte-identical to the pre-wire-protocol behavior; Binary
    /// switches renderAndShip to stateful keyframe/delta frames.
    WireFormat wireFormat = WireFormat::Json;
    /// Binary mode: frames per keyframe epoch (see
    /// wire::DeltaEncoderOptions::keyframeInterval).
    count wireKeyframeInterval = 64;
    /// Ignored. Kept only so the frozen bench/cycle compiles; ROADMAP item
    /// 1 removes it.
    bool dynamicMeasures = true;
    /// Ignored. Kept only so the frozen bench/cycle compiles; ROADMAP item
    /// 1 removes it.
    count dynStateMaxNodes = 1536;
    /// Speculative precompute: the serving layer may call speculate()
    /// between requests to precompute the predicted next slider tick
    /// (contact diff, layout warm start, measure result) into side slots.
    /// A correct prediction turns the next setFrame/setCutoff into cache
    /// hits on every phase; a wrong one costs nothing on the interactive
    /// path. The flag only gates the serving layer's idle-time scheduling
    /// — calling speculate() directly ignores it.
    bool speculate = false;
    /// Level-of-detail progressive scenes (binary wire only): keyframes
    /// ship as a coarse keyframe (coarsened node/edge set + prolongation
    /// map, drawn immediately) followed by an ordinary refine delta that
    /// expands it to the full scene. Cuts modeled time-to-first-pixels on
    /// worst-case cutoff jumps at the price of one extra (small) frame.
    bool lodScenes = false;
    /// LOD is skipped below this node count (the coarse frame would not
    /// pay for its own overhead on small scenes).
    count lodMinNodes = 256;
    /// Coarse target size divisor: the coarse node set targets
    /// numberOfNodes() / lodFactor clusters.
    count lodFactor = 4;
};

class RinWidget {
public:
    using Options = RinWidgetOptions;

    /// Wall-clock decomposition of one update cycle (all in ms).
    struct UpdateTiming {
        double networkUpdateMs = 0.0; ///< DynamicRin edge diff (Figs. 6ab, 7d, 8gh)
        double layoutMs = 0.0;        ///< Maxent-Stress generation (Fig. 7e)
        double measureMs = 0.0;       ///< centrality/community recompute (Fig. 6ab)
        double sceneBuildMs = 0.0;    ///< widget data handling
        double serializeMs = 0.0;     ///< figure -> JSON
        double clientMs = 0.0;        ///< simulated browser update
        rin::DynamicRin::UpdateStats edgeStats;
        std::size_t serializedBytes = 0;     ///< figure JSON size (0 in binary mode)
        std::size_t edgeBytesSerialized = 0; ///< edge-trace bytes serialized
                                             ///< fresh (0 = cache hit)
        std::size_t wireBytes = 0; ///< payload bytes actually shipped, in
                                   ///< whichever format is active
        bool binaryWire = false;   ///< payload was a wire frame, not JSON
        bool wireKeyframe = false; ///< binary mode: frame was a keyframe
        count wirePatchElements = 0; ///< binary mode: client DOM elements
                                     ///< touched applying the frame
        bool measureCacheHit = false; ///< scores served from the version-keyed
                                      ///< result cache (no recomputation)
        bool degraded = false; ///< update ran in degraded mode (sampled
                               ///< measure with a stated error bound)
        ResolutionTier measureTier = ResolutionTier::Exact; ///< how the scores
                                                            ///< were produced
        double measureEps = 0.0;    ///< achieved additive error (0 = exact)
        double measureDelta = 0.0;  ///< failure probability of that bound
        count measureSamples = 0;   ///< samples drawn (approx tier)
        bool specJudged = false; ///< a pending speculation was judged by
                                 ///< this event (hit or miss)
        bool specHit = false;    ///< ... and matched: precomputed results
                                 ///< were adopted instead of recomputed
        bool lodCoarse = false;  ///< binary wire: keyframe shipped as a
                                 ///< coarse + refine LOD pair
        count lodCoarseNodes = 0;    ///< coarse node count of that pair
        double clientRefineMs = 0.0; ///< client time applying the refine
                                     ///< delta (clientMs = first pixels)

        double serverMs() const {
            return networkUpdateMs + layoutMs + measureMs + sceneBuildMs + serializeMs;
        }
        double totalMs() const { return serverMs() + clientMs + clientRefineMs; }
    };

    explicit RinWidget(const md::Trajectory& traj, Options options = {});

    // -- slider events --------------------------------------------------

    /// Trajectory-frame slider (Fig. 8): node positions change, so the
    /// client performs a full DOM update.
    UpdateTiming setFrame(index frame);

    /// Cutoff slider (Fig. 7): node positions of the protein view are
    /// unchanged; the client updates edges (and the Maxent view).
    UpdateTiming setCutoff(double cutoff);

    /// Measure slider (Fig. 6): network and layouts unchanged; only the
    /// node colors are recomputed and re-rendered. The serialized edge
    /// traces are reused from the previous update (cache hit:
    /// UpdateTiming::edgeBytesSerialized == 0).
    UpdateTiming setMeasure(Measure measure);

    /// Recomputes everything (initial draw / "recompute" button in
    /// on-demand mode).
    UpdateTiming refresh();

    // -- speculative precompute (idle-capacity prefetch) ------------------

    /// The predicted next slider event (Kind::None when the interaction
    /// history supports no prediction). Safe to call between requests.
    Prediction predictNext() const { return predictor_.predict(); }

    /// Precomputes the predicted next tick into side slots: the contact
    /// diff (DynamicRin side work), a warm-started layout of the predicted
    /// graph, and the current measure's exact scores on it. Nothing
    /// observable changes — live graph, coords, scores, and wire state are
    /// untouched — so a wrong or cancelled speculation never alters what a
    /// client sees. The next matching setFrame/setCutoff adopts the slots
    /// (UpdateTiming::specHit); any other graph-moving event judges the
    /// speculation a miss and drops it.
    ///
    /// @p cancelled is polled between phases; returning true abandons the
    /// speculation (partial side work such as an extended contact cache is
    /// kept — it is legal cache warming either way). Returns true when a
    /// complete speculation is pending afterwards. The caller (serving
    /// layer) must serialize this with the widget's slider events exactly
    /// like any other request — the widget itself is not thread-safe.
    bool speculate(const std::function<bool()>& cancelled);

    /// A completed speculation awaits judgement by the next event.
    bool speculationPending() const { return spec_.valid; }

    /// Drops any pending speculation and DynamicRin's side slot (session
    /// migration: the speculation's accounting stays on this replica).
    void dropSpeculation() {
        spec_.valid = false;
        rin_.dropFrameSpeculation();
    }

    // -- quality-of-life toggles (paper: "misc. components") -------------

    /// Auto vs on-demand recomputation of the measure on network changes.
    void setAutoRecompute(bool enabled) { options_.autoRecompute = enabled; }
    bool autoRecompute() const { return options_.autoRecompute; }

    /// Delta view: colors show current minus buffered scores.
    void setDeltaMode(bool enabled) { deltaMode_ = enabled; }
    bool deltaMode() const { return deltaMode_; }

    /// Stores the current scores as the delta baseline.
    void snapshotBuffer() { buffer_ = scores_; }

    /// Degraded service mode (the serving layer's shed/deadline ladder).
    /// Approx lets the measure engine substitute sampled results with a
    /// stated error bound. The layout does not read it: every update runs
    /// the same warm-started solve.
    void setDegradeLevel(DegradeLevel level) { degradeLevel_ = level; }
    DegradeLevel degradeLevel() const { return degradeLevel_; }

    bool degraded() const { return degradeLevel_ != DegradeLevel::None; }

    // -- state ------------------------------------------------------------

    const Graph& graph() const { return rin_.graph(); }
    index frame() const { return rin_.frame(); }
    double cutoff() const { return rin_.cutoff(); }
    std::optional<Measure> measure() const { return measure_; }
    const Options& options() const { return options_; }

    /// Scores of the current measure (empty until a measure ran).
    const std::vector<double>& scores() const { return scores_; }

    /// Scores shown (raw, or current - buffer in delta mode).
    std::vector<double> displayedScores() const;

    /// Maxent-Stress coordinates of the current network.
    const std::vector<Point3>& maxentLayout() const { return maxentCoords_; }

    /// The last serialized figure (two scenes side by side, like Fig. 5).
    /// Only maintained in JSON mode; empty under WireFormat::Binary.
    const std::string& figureJson() const { return figureJson_; }

    // -- binary wire protocol (WireFormat::Binary) ------------------------

    /// The last shipped wire frame (empty in JSON mode). When the last
    /// update shipped an LOD pair this is the *coarse* keyframe; the
    /// refine delta is in wireRefineFrame().
    const wire::Bytes& wireFrame() const { return wireFrame_; }

    /// The refine delta of the last LOD pair (empty otherwise).
    const wire::Bytes& wireRefineFrame() const { return wireRefineFrame_; }

    /// The simulated client's decoder state (what the browser holds).
    const wire::FrameDecoder& wireClient() const { return wireClient_; }

    /// Wire stats of the last shipped frame (keyframe?, reason, sizes).
    const wire::DeltaEncoder::FrameStats& wireStats() const {
        return wireEncoder_.lastStats();
    }

    /// Simulates the client losing its state (tab reload, dropped
    /// websocket): the next update's ack mismatches and the encoder
    /// resyncs with a keyframe.
    void dropWireClient() { wireClient_.reset(); }

    /// Forces the next shipped frame to be a keyframe. Session migration
    /// calls this when a widget is re-homed onto another replica: the
    /// resync keyframe is self-contained, so the client's stream continues
    /// without depending on deltas the new replica never produced.
    void forceWireResync() { wireEncoder_.forceKeyframe(); }

private:
    /// How renderAndShip learns what happened to the edge set: nothing
    /// (measure switch), an exact DynamicRin diff (cutoff/frame switch),
    /// or an unknown change requiring the full edge list (refresh).
    enum class EdgeDelta { None, Diffed, Full };

    /// A completed speculation awaiting judgement: everything the widget
    /// would compute for the predicted event, held in side buffers. Live
    /// state is never touched until a real event proves the prediction
    /// right (adoption) — there is nothing to roll back on a miss.
    struct Speculation {
        bool valid = false;
        Prediction pred;
        std::uint64_t baseVersion = 0; ///< live graph version it assumed
        std::optional<Measure> measure; ///< measure the scores are for
        std::vector<double> scores;     ///< exact scores on the predicted graph
        std::vector<Point3> coords;     ///< warm-started layout of it
        std::vector<std::pair<node, node>> added, removed; ///< predicted diff
        /// Pre-serialized JSON edge traces of the predicted scene (cutoff
        /// predictions, JSON wire mode): built from byte-identical inputs,
        /// so a hit installs them into the edge-trace cache and the render
        /// path costs the same as a markers-only update.
        std::array<std::string, 2> edgeTraces;
        bool haveEdgeTraces = false;
    };

    void recomputeLayout(UpdateTiming& t);
    void recomputeMeasure(UpdateTiming& t);
    void renderAndShip(UpdateTiming& t, bool fullClientUpdate, bool markersOnly,
                       EdgeDelta edgeDelta);
    /// Judges the pending speculation against the real event that just ran
    /// its network update (diffs must match exactly); on a hit installs the
    /// precomputed scores into the engine's exact cache and adopts the
    /// precomputed coordinates. Returns true on adoption.
    bool adoptSpeculation(UpdateTiming& t, Prediction::Kind kind, index frame,
                          double cutoff, std::uint64_t preVersion);
    /// Version-keyed LOD mapping of the current graph; nullptr when LOD is
    /// off, the graph is too small, or it cannot be coarsened.
    const LodMapping* lodMappingFor();

    Options options_;
    rin::DynamicRin rin_;
    // Shared CSR snapshot + per-measure result cache, both invalidated by
    // the graph's version counter (cutoff/frame switches mutate the graph).
    MeasureEngine engine_;
    std::optional<Measure> measure_;
    std::vector<double> scores_;
    std::vector<double> buffer_;
    std::vector<Point3> maxentCoords_;
    // Sweep-kernel state (rho stress weights keyed on the graph version,
    // octree, scratch buffers) kept for the session's lifetime: a layout on
    // an unchanged graph skips the rho precompute entirely.
    MaxentWorkspace layoutWorkspace_;
    std::string figureJson_;
    // Serialized edge traces of the two scenes, valid while node positions
    // and the edge set are unchanged (i.e. across measure-only updates).
    std::array<std::string, 2> edgeTraceCache_;
    bool edgeTracesValid_ = false;
    ClientCostModel client_;
    // Binary wire path: stateful encoder (server), simulated client
    // decoder, and the last frame shipped between them.
    wire::DeltaEncoder wireEncoder_;
    wire::FrameDecoder wireClient_;
    wire::Bytes wireFrame_;
    wire::Bytes wireRefineFrame_;
    bool deltaMode_ = false;
    DegradeLevel degradeLevel_ = DegradeLevel::None;
    // Speculative precompute: prediction model fed by the slider events,
    // the pending side-slot result, and a dedicated layout workspace so
    // speculation never perturbs the live rho/octree cache.
    Predictor predictor_;
    Speculation spec_;
    MaxentWorkspace specLayoutWorkspace_;
    // LOD mapping cache, keyed on the graph version like the measure and
    // rho caches (rebuilt only when a keyframe fires on a moved graph).
    LodMapping lodMapping_;
    std::uint64_t lodVersion_ = 0;
    bool lodValid_ = false;
};

} // namespace rinkit::viz
