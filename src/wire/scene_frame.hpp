#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/layout/coarsening.hpp"
#include "src/support/point3.hpp"
#include "src/support/types.hpp"
#include "src/viz/scene.hpp"
#include "src/wire/wire_format.hpp"

namespace rinkit::wire {

/// "RWF1" little-endian.
inline constexpr std::uint32_t kFrameMagic = 0x31465752u;
/// Version 2: bitmap-or-gap changed-index sets and colour back-references
/// (wire_format.hpp, DESIGN.md "Wire protocol"). Other versions are rejected.
inline constexpr std::uint8_t kFrameVersion = 2;

/// Mode byte that opens every view's colour section (keyframe: palette plus
/// one index per node; delta: palette growth plus changed indices). A view
/// whose section would be byte-identical to view 0's ships kColorsAsView0
/// alone, and the decoder applies view 0's bytes to it a second time.
/// View 0 itself must be inline.
inline constexpr std::uint8_t kColorsInline = 0;
inline constexpr std::uint8_t kColorsAsView0 = 1;

/// Frame flag bits. A level-of-detail (LOD) coarse keyframe
/// (kFlagKeyframe | kFlagLodCoarse) opens an epoch like a keyframe but
/// ships the coarsened node/edge set plus the fine-to-coarse prolongation
/// map; the decoder expands it to full fine-shaped state (every fine node
/// inherits its cluster's position/color/score), so the immediately
/// following frame is an *ordinary* delta — the refine frame — that moves
/// members to their true values. First pixels therefore cost O(coarse)
/// while refinement rides the existing delta machinery.
inline constexpr std::uint8_t kFlagKeyframe = 1;
inline constexpr std::uint8_t kFlagLodCoarse = 2;

/// The client's view of the stream position: which (epoch, seq) frame it
/// last applied. The server compares this against its own position and
/// falls back to a keyframe whenever they disagree (resync rule). A client
/// with no state acks {0, 0}, which can never match — encoder epochs start
/// at 1.
struct Ack {
    std::uint32_t epoch = 0;
    std::uint32_t seq = 0;

    bool operator==(const Ack&) const = default;
};

/// Per-axis uniform quantization grid over an axis-aligned box: positions
/// map to 16-bit integers, so the worst-case reconstruction error per axis
/// is extent / (2 * 65535) — sub-0.01 Å for protein-sized scenes. The grid
/// is part of the keyframe and stays fixed for the whole epoch (delta
/// frames move quantized coordinates, never the grid), which is what makes
/// "apply N deltas" land bit-identical to decoding a keyframe of the final
/// scene.
struct QuantGrid {
    Point3 lo;
    Point3 hi;

    std::array<std::uint16_t, 3> quantize(const Point3& p) const;
    Point3 dequantize(const std::array<std::uint16_t, 3>& q) const;
    bool contains(const Point3& p) const;

    /// Worst-case |original - dequantized| per axis.
    Point3 maxError() const;

    bool operator==(const QuantGrid&) const = default;
};

/// Decoded state of one scene view (protein layout / Maxent layout). The
/// canonical representation is quantized space: qpos + grid, with colors
/// as indices into a per-epoch palette. positions() / resolvedColors()
/// materialize the renderable form. Scores live on the decoder, not here:
/// they belong to the shared node table, like the edge set.
struct ViewState {
    std::string title;
    QuantGrid grid;
    double nodeSize = 6.0;
    std::vector<std::array<std::uint16_t, 3>> qpos;
    std::vector<std::uint32_t> colorIndex;
    std::vector<viz::Color> palette;

    std::vector<Point3> positions() const;
    std::vector<viz::Color> resolvedColors() const;
};

/// What one decoded frame did to the client state — the quantities the
/// parse+patch client cost model charges for.
struct PatchStats {
    bool keyframe = false;
    bool lodCoarse = false;   ///< LOD coarse keyframe (coarse node/edge set)
    count lodCoarseNodes = 0; ///< coarse cluster count when lodCoarse
    std::size_t frameBytes = 0;
    count viewCount = 0;
    count nodeCount = 0; ///< shared node table size
    count edgeCount = 0; ///< edge count *after* applying the frame
    count edgesAdded = 0;
    count edgesRemoved = 0;
    count markersTouched = 0; ///< distinct markers with a position, color or
                              ///< score change, summed over views

    /// DOM elements the simulated client touches applying this frame: a
    /// keyframe rebuilds every marker and edge segment in every view; a
    /// delta touches only changed markers plus changed edge segments. An
    /// LOD coarse keyframe draws one marker per *cluster* (members share a
    /// position, so they are a single visible marker) plus the coarse edge
    /// skeleton — the O(coarse) first-pixels cost.
    count elementsTouched() const {
        if (keyframe) return viewCount * ((lodCoarse ? lodCoarseNodes : nodeCount) + edgeCount);
        return markersTouched + viewCount * (edgesAdded + edgesRemoved);
    }
};

/// Client-side frame decoder. Strictly validating: any truncated or
/// corrupted buffer, out-of-range index, or delta whose base (epoch, seq)
/// does not match the current state throws WireError. A failed apply()
/// also drops the decoder state entirely — the next ack() reports {0, 0},
/// which the encoder answers with a keyframe (the resync rule doubles as
/// corruption recovery).
class FrameDecoder {
public:
    /// Applies one frame and reports what it changed.
    PatchStats apply(const Bytes& frame);

    bool hasState() const { return hasState_; }
    Ack ack() const { return hasState_ ? Ack{epoch_, seq_} : Ack{}; }

    const std::vector<ViewState>& views() const { return views_; }

    /// Current edge set, sorted (u < v, lexicographic) — shared by all views.
    const std::vector<std::pair<node, node>>& edges() const { return edges_; }

    /// Per-node measure scores of the shared node table (hover text is
    /// regenerated client-side instead of shipping label strings).
    const std::vector<float>& scores() const { return scores_; }

    /// Drops all state (simulated tab reload / lost websocket).
    void reset();

private:
    /// Byte span [first, second) of view 0's inline colour section in the
    /// frame being decoded, for the other views' back-references.
    using Span = std::pair<std::size_t, std::size_t>;

    PatchStats applyChecked(ByteReader& r, std::size_t frameBytes);
    void readViewHeader(ByteReader& r, ViewState& view);
    void readKeyframeView(ByteReader& r, ViewState& view, count v, count nodes,
                          Span& view0Colors);
    void readLodKeyframeView(ByteReader& r, ViewState& view, count v, count nodes,
                             const std::vector<node>& fineToCoarse, count coarseNodes,
                             Span& view0Colors);
    count readDeltaView(ByteReader& r, ViewState& view, count v, count nodes,
                        Span& view0Colors);

    bool hasState_ = false;
    std::uint32_t epoch_ = 0;
    std::uint32_t seq_ = 0;
    std::vector<ViewState> views_;
    std::vector<std::pair<node, node>> edges_;
    std::vector<float> scores_;
    // Delta scratch, reused across frames.
    std::vector<std::pair<node, node>> addScratch_, removeScratch_, mergeScratch_;
    std::vector<std::uint64_t> scoreChangedIdx_, changedIdx_;
    // Distinct-marker counting scratch: stamp[i] == generation marks node i
    // already counted for the current view.
    std::vector<std::uint32_t> touchStamp_;
    std::uint32_t stampGeneration_ = 0;
};

struct DeltaEncoderOptions {
    /// Frames per epoch: one keyframe followed by (interval - 1) deltas,
    /// then the next keyframe regardless of acks. 0 disables periodic
    /// keyframes (they still happen on resync / shape change / grid
    /// overflow).
    count keyframeInterval = 64;
    /// Relative per-axis padding applied when a quantization grid is
    /// (re)computed: headroom for positions to drift between frames
    /// without leaving the grid (which costs a keyframe). Warm-started
    /// layouts drift a few percent per relayout, so generous padding buys
    /// many delta frames per keyframe; the precision cost is negligible
    /// (the error bound stays extent/(2*65535) per axis).
    double gridPadding = 0.25;
};

/// Exact edge diff for a delta frame, both lists sorted (u < v,
/// lexicographic) — normally DynamicRin's diff buffers. Empty lists mean
/// "edge set unchanged" (measure switch). Passing no hint to encode()
/// instead means "edge set unknown": the scenes must then carry the full
/// edge list and the encoder diffs it against its shadow state itself.
struct EdgeDiffHint {
    const std::vector<std::pair<node, node>>* added = nullptr;
    const std::vector<std::pair<node, node>>* removed = nullptr;
};

/// Server-side stateful frame encoder. Keeps a shadow copy of exactly the
/// state the client's FrameDecoder holds (quantized positions, palette,
/// edge set, scores) and emits either a keyframe or a delta frame against
/// it.
///
/// Keyframe triggers, in order: first frame, explicit forceKeyframe(),
/// client ack mismatch (resync), node/view-count or view-shape change,
/// periodic interval, and any position leaving its view's quantization
/// grid. Everything else ships as a delta.
class DeltaEncoder {
public:
    struct FrameStats {
        bool keyframe = false;
        bool lodCoarse = false; ///< this keyframe shipped as an LOD pair
        std::size_t bytes = 0;
        const char* reason = ""; ///< "delta" or which keyframe trigger fired
        count edgesAdded = 0;
        count edgesRemoved = 0;
        count positionsChanged = 0; ///< summed over views (delta frames)
        count colorsChanged = 0;    ///< summed over views (delta frames)
        count scoresChanged = 0;
        count lodCoarseNodes = 0; ///< clusters in the coarse keyframe
        count lodLevels = 0;      ///< refine depth (composed hierarchy levels)
        count bitmapSets = 0;     ///< changed-index sets shipped as bitmaps
        count colorBackRefs = 0;  ///< views whose colours repeat view 0's bytes
    };

    /// Lazily supplies the coarsening of the *current* scene graph; only
    /// invoked when a keyframe is about to fire, so callers can skip
    /// building (or cache-key by graph version) the mapping on the delta
    /// fast path. Returning nullptr (or a mapping that does not coarsen:
    /// coarseNodes == 0 or >= fine node count) falls back to the full
    /// keyframe.
    using LodProvider = std::function<const LodMapping*()>;

    explicit DeltaEncoder(DeltaEncoderOptions options = {}) : options_(options) {}

    /// Encodes the next frame for @p views (one Scene per view; all views
    /// share the node table and edge set, and view order must be stable
    /// across calls). @p scores is the shared per-node score vector (size
    /// = node count); @p clientAck is the client's last applied (epoch,
    /// seq); @p edgeDiff as documented on EdgeDiffHint.
    ///
    /// When @p lodProvider is set and a keyframe fires, the keyframe is
    /// emitted as an LOD pair instead: the returned bytes are the coarse
    /// keyframe (first pixels) and the refine delta is stashed — fetch it
    /// with takeRefineFrame() and ship it right after. The pair is one
    /// logical keyframe: (epoch+1, seq 0) then (epoch+1, seq 1).
    Bytes encode(const std::vector<const viz::Scene*>& views,
                 const std::vector<double>& scores, Ack clientAck,
                 const EdgeDiffHint* edgeDiff,
                 const LodProvider& lodProvider = nullptr);

    /// Forces the next encode() to emit a keyframe (reusing the current
    /// quantization grids when they still fit, so decoding it matches the
    /// delta-accumulated client state bit for bit).
    void forceKeyframe() { forceKeyframe_ = true; }

    const FrameStats& lastStats() const { return stats_; }

    /// True when the last encode() emitted an LOD pair and the refine
    /// delta has not been taken yet.
    bool hasRefineFrame() const { return hasRefine_; }

    /// Moves out the stashed refine delta (second half of the LOD pair).
    /// Must be shipped to the client before the next encode() — the next
    /// frame is encoded against post-refine state.
    Bytes takeRefineFrame();

    /// Stats of the stashed/last refine delta.
    const FrameStats& refineStats() const { return refineStats_; }

    /// The (epoch, seq) of the last emitted frame.
    Ack current() const { return {epoch_, seq_}; }

private:
    const char* keyframeReason(const std::vector<const viz::Scene*>& views,
                               Ack clientAck) const;
    void resolveEdges(const std::vector<const viz::Scene*>& views,
                      const EdgeDiffHint* edgeDiff);
    Bytes encodeKeyframe(const std::vector<const viz::Scene*>& views,
                         const std::vector<double>& scores);
    Bytes encodeLodPair(const std::vector<const viz::Scene*>& views,
                        const std::vector<double>& scores, const LodMapping& lod);
    Bytes encodeDelta(const std::vector<const viz::Scene*>& views,
                      const std::vector<double>& scores);
    void rebuildViewState(count viewIdx, const viz::Scene& scene, bool tryReuseGrid);
    std::uint32_t paletteIndexOf(count viewIdx, const viz::Color& c);

    DeltaEncoderOptions options_;
    std::uint32_t epoch_ = 0;
    std::uint32_t seq_ = 0;
    bool hasState_ = false;
    bool forceKeyframe_ = false;
    std::vector<ViewState> shadow_;
    std::vector<std::pair<node, node>> edges_;
    std::vector<float> scores_;
    // Per-view packed-RGB -> palette index, mirrors shadow_[v].palette.
    std::vector<std::unordered_map<std::uint32_t, std::uint32_t>> paletteLookup_;
    // Pending edge diff of the frame being encoded (set by resolveEdges).
    const std::vector<std::pair<node, node>>* pendingAdded_ = nullptr;
    const std::vector<std::pair<node, node>>* pendingRemoved_ = nullptr;
    // Diff / merge scratch, reused across frames.
    std::vector<std::pair<node, node>> addScratch_, removeScratch_, mergeScratch_;
    std::vector<std::uint32_t> colorIdxScratch_;
    std::vector<node> changedScratch_;
    std::vector<std::array<std::uint16_t, 3>> qScratch_;
    FrameStats stats_;
    // LOD pair state: the stashed refine delta and its stats.
    Bytes refineFrame_;
    bool hasRefine_ = false;
    FrameStats refineStats_;
    std::vector<std::pair<node, node>> lodFineEdges_; // true edge set during pair encode
};

} // namespace rinkit::wire
