#include "src/wire/scene_frame.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace rinkit::wire {

namespace {

using Edge = std::pair<node, node>;
/// Byte range [first, second) of view 0's inline colour section in a frame.
using Span = std::pair<std::size_t, std::size_t>;

std::uint32_t floatBits(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

/// Gap coding over a sorted (u < v, lexicographic) edge list: du against
/// the previous edge's u, then v against u — or against the previous v
/// when u repeats (runs of edges from one node are the common case).
void writeEdgeList(ByteWriter& w, const std::vector<Edge>& edges) {
    node prevU = 0, prevV = 0;
    for (const auto& [u, v] : edges) {
        const node du = u - prevU;
        w.varint(du);
        w.varint(du == 0 ? v - prevV - 1 : v - u - 1);
        prevU = u;
        prevV = v;
    }
}

void readEdgeList(ByteReader& r, std::uint64_t nodeCount, std::uint64_t m,
                  std::vector<Edge>& out) {
    out.clear();
    out.reserve(m);
    std::uint64_t prevU = 0, prevV = 0;
    for (std::uint64_t k = 0; k < m; ++k) {
        const std::uint64_t du = r.varint();
        const std::uint64_t dv = r.varint();
        // A delta >= nodeCount can only produce an out-of-range endpoint;
        // rejecting it here also rules out 64-bit overflow below.
        if (du >= nodeCount || dv >= nodeCount) throw WireError("edge delta out of range");
        const std::uint64_t u = prevU + du;
        const std::uint64_t v = du == 0 ? prevV + 1 + dv : u + 1 + dv;
        if (u >= nodeCount || v >= nodeCount) throw WireError("edge endpoint out of range");
        out.emplace_back(static_cast<node>(u), static_cast<node>(v));
        prevU = u;
        prevV = v;
    }
}

/// edges := (edges \ removed) ∪ added, all three sorted. Throws if a
/// removed edge is absent or an added edge already present — a delta
/// against the wrong base must fail loudly, not silently diverge.
void applyEdgeDiff(std::vector<Edge>& edges, const std::vector<Edge>& removed,
                   const std::vector<Edge>& added, std::vector<Edge>& scratch) {
    scratch.clear();
    scratch.reserve(edges.size() + added.size());
    auto it = edges.begin();
    for (const auto& rm : removed) {
        while (it != edges.end() && *it < rm) scratch.push_back(*it++);
        if (it == edges.end() || *it != rm) throw WireError("removed edge not present");
        ++it;
    }
    scratch.insert(scratch.end(), it, edges.end());

    edges.clear();
    edges.reserve(scratch.size() + added.size());
    auto surv = scratch.begin();
    for (const auto& ad : added) {
        while (surv != scratch.end() && *surv < ad) edges.push_back(*surv++);
        if (surv != scratch.end() && *surv == ad) throw WireError("added edge already present");
        edges.push_back(ad);
    }
    edges.insert(edges.end(), surv, scratch.end());
}

void diffSorted(const std::vector<Edge>& oldEdges, const std::vector<Edge>& newEdges,
                std::vector<Edge>& added, std::vector<Edge>& removed) {
    added.clear();
    removed.clear();
    std::set_difference(newEdges.begin(), newEdges.end(), oldEdges.begin(), oldEdges.end(),
                        std::back_inserter(added));
    std::set_difference(oldEdges.begin(), oldEdges.end(), newEdges.begin(), newEdges.end(),
                        std::back_inserter(removed));
}

QuantGrid paddedGrid(const std::vector<Point3>& points, double padding) {
    Aabb tight;
    for (const auto& p : points) tight.expand(p);
    if (!tight.valid()) return QuantGrid{{0.0, 0.0, 0.0}, {0.0, 0.0, 0.0}};
    const Point3 ext = tight.extent();
    // Degenerate axes (planar layouts) borrow the largest extent so small
    // drift along them does not force a grid rebuild every frame.
    const double ref = std::max({ext.x, ext.y, ext.z, 1e-9});
    const Point3 pad{padding * (ext.x > 0.0 ? ext.x : ref),
                     padding * (ext.y > 0.0 ? ext.y : ref),
                     padding * (ext.z > 0.0 ? ext.z : ref)};
    return QuantGrid{tight.lo - pad, tight.hi + pad};
}

double sceneNodeSize(const viz::Scene& s) {
    return s.nodeSizes.size() == 1 ? s.nodeSizes[0] : 6.0;
}

/// Representative fine node per coarse cluster: the smallest member. Both
/// sides of the wire derive this from the fine-to-coarse map (it is never
/// shipped), so encoder shadow and decoder state agree on which fine node
/// a coarse edge endpoint maps to. Throws when a coarse id has no member —
/// such a map cannot come from a valid coarsening.
std::vector<node> representativesFromMap(const std::vector<node>& fineToCoarse,
                                         count coarseNodes) {
    std::vector<node> rep(coarseNodes, none);
    for (node i = 0; i < fineToCoarse.size(); ++i) {
        const node c = fineToCoarse[i];
        if (rep[c] == none) rep[c] = i;
    }
    for (const node r : rep) {
        if (r == none) throw WireError("empty coarse cluster");
    }
    return rep;
}

/// Maps coarse-space edges into fine space via cluster representatives
/// (normalized u < v, sorted). Injective because representatives are.
std::vector<Edge> skeletonEdges(const std::vector<Edge>& coarseEdges,
                                const std::vector<node>& rep) {
    std::vector<Edge> out;
    out.reserve(coarseEdges.size());
    for (const auto& [cu, cv] : coarseEdges) {
        const node u = rep[cu], v = rep[cv];
        out.emplace_back(std::min(u, v), std::max(u, v));
    }
    std::sort(out.begin(), out.end());
    return out;
}

void writeViewHeader(ByteWriter& w, const ViewState& view) {
    w.string(view.title);
    w.f64(view.grid.lo.x);
    w.f64(view.grid.lo.y);
    w.f64(view.grid.lo.z);
    w.f64(view.grid.hi.x);
    w.f64(view.grid.hi.y);
    w.f64(view.grid.hi.z);
    w.f64(view.nodeSize);
}

void writePalette(ByteWriter& w, const std::vector<viz::Color>& palette, std::size_t from) {
    for (std::size_t p = from; p < palette.size(); ++p) {
        w.u8(static_cast<std::uint8_t>(palette[p].r));
        w.u8(static_cast<std::uint8_t>(palette[p].g));
        w.u8(static_cast<std::uint8_t>(palette[p].b));
    }
}

void readPalette(ByteReader& r, std::vector<viz::Color>& palette, std::uint64_t entries) {
    for (std::uint64_t k = 0; k < entries; ++k) {
        viz::Color c;
        c.r = r.u8();
        c.g = r.u8();
        c.b = r.u8();
        palette.push_back(c);
    }
}

/// Writes view @p v's colour section: its mode byte, then @p body's inline
/// bytes, collapsed to the one-byte back-reference when they equal view
/// 0's (whose span @p view0 records). Returns true when it collapsed.
template <class Body>
bool writeColorSection(ByteWriter& w, count v, Span& view0, Body&& body) {
    w.u8(kColorsInline);
    const std::size_t begin = w.size();
    body();
    if (v == 0) {
        view0 = {begin, w.size()};
        return false;
    }
    const auto& bytes = w.bytes();
    if (w.size() - begin != view0.second - view0.first ||
        !std::equal(bytes.begin() + begin, bytes.end(), bytes.begin() + view0.first))
        return false;
    w.truncate(begin - 1);
    w.u8(kColorsAsView0);
    return true;
}

/// Reads view @p v's colour section with @p body: inline bytes in place
/// (recording view 0's span), or a back-reference re-parsed from view 0's.
template <class Body>
void readColorSection(ByteReader& r, count v, Span& view0, Body&& body) {
    const std::uint8_t mode = r.u8();
    if (mode == kColorsInline) {
        const std::size_t begin = r.offset();
        body(r);
        if (v == 0) view0 = {begin, r.offset()};
    } else if (mode == kColorsAsView0) {
        if (v == 0) throw WireError("colour back-reference on view 0");
        ByteReader again = r.slice(view0.first, view0.second);
        body(again);
        again.expectEnd();
    } else {
        throw WireError("unknown colour section mode");
    }
}

} // namespace

// ---------------------------------------------------------------- QuantGrid

std::array<std::uint16_t, 3> QuantGrid::quantize(const Point3& p) const {
    const auto axis = [](double v, double axisLo, double axisHi) -> std::uint16_t {
        const double e = axisHi - axisLo;
        if (!(e > 0.0)) return 0;
        const double t = (v - axisLo) / e * 65535.0;
        if (t <= 0.0) return 0;
        if (t >= 65535.0) return 65535;
        return static_cast<std::uint16_t>(std::lround(t));
    };
    return {axis(p.x, lo.x, hi.x), axis(p.y, lo.y, hi.y), axis(p.z, lo.z, hi.z)};
}

Point3 QuantGrid::dequantize(const std::array<std::uint16_t, 3>& q) const {
    const auto axis = [](std::uint16_t qv, double axisLo, double axisHi) {
        const double e = axisHi - axisLo;
        return e > 0.0 ? axisLo + static_cast<double>(qv) / 65535.0 * e : axisLo;
    };
    return {axis(q[0], lo.x, hi.x), axis(q[1], lo.y, hi.y), axis(q[2], lo.z, hi.z)};
}

bool QuantGrid::contains(const Point3& p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y && p.z >= lo.z &&
           p.z <= hi.z;
}

Point3 QuantGrid::maxError() const {
    const auto axis = [](double axisLo, double axisHi) {
        const double e = axisHi - axisLo;
        return e > 0.0 ? e / (2.0 * 65535.0) : 0.0;
    };
    return {axis(lo.x, hi.x), axis(lo.y, hi.y), axis(lo.z, hi.z)};
}

// ----------------------------------------------------------------- ViewState

std::vector<Point3> ViewState::positions() const {
    std::vector<Point3> out(qpos.size());
    for (count i = 0; i < qpos.size(); ++i) out[i] = grid.dequantize(qpos[i]);
    return out;
}

std::vector<viz::Color> ViewState::resolvedColors() const {
    std::vector<viz::Color> out(colorIndex.size());
    for (count i = 0; i < colorIndex.size(); ++i) out[i] = palette[colorIndex[i]];
    return out;
}

// -------------------------------------------------------------- FrameDecoder

void FrameDecoder::reset() {
    hasState_ = false;
    epoch_ = 0;
    seq_ = 0;
    views_.clear();
    edges_.clear();
    scores_.clear();
}

PatchStats FrameDecoder::apply(const Bytes& frame) {
    try {
        ByteReader r(frame);
        return applyChecked(r, frame.size());
    } catch (...) {
        // A frame that failed to apply leaves unknown partial state; drop
        // everything so the next ack ({0, 0}) makes the server resync with
        // a keyframe.
        reset();
        throw;
    }
}

PatchStats FrameDecoder::applyChecked(ByteReader& r, std::size_t frameBytes) {
    if (r.u32() != kFrameMagic) throw WireError("bad magic");
    if (r.u8() != kFrameVersion) throw WireError("unsupported version");
    const std::uint8_t flags = r.u8();
    if ((flags & ~std::uint8_t{kFlagKeyframe | kFlagLodCoarse}) != 0)
        throw WireError("unknown flags");
    const bool keyframe = (flags & kFlagKeyframe) != 0;
    const bool lodCoarse = (flags & kFlagLodCoarse) != 0;
    if (lodCoarse && !keyframe) throw WireError("lod flag without keyframe");
    const std::uint32_t epoch = r.u32();
    const std::uint32_t seq = r.u32();
    const std::uint64_t nodeCount = r.varint();
    const std::uint64_t viewCount = r.varint();
    if (viewCount == 0 || viewCount > 64) throw WireError("view count out of range");
    if (nodeCount > 0xffffffffull) throw WireError("node count out of range");

    PatchStats stats;
    stats.frameBytes = frameBytes;
    stats.keyframe = keyframe;
    stats.lodCoarse = lodCoarse;
    stats.viewCount = viewCount;

    if (lodCoarse) {
        if (epoch == 0) throw WireError("keyframe epoch 0");
        // Each fine node takes at least one prolongation-map varint byte.
        r.boundedCount(nodeCount, 1, "nodes");
        hasState_ = false; // a partial decode must not look committed
        const std::uint64_t coarseCount = r.varint();
        if (coarseCount == 0 || coarseCount > nodeCount)
            throw WireError("coarse node count out of range");
        std::vector<node> fineToCoarse(nodeCount);
        for (auto& c : fineToCoarse) {
            const std::uint64_t ci = r.varint();
            if (ci >= coarseCount) throw WireError("prolongation map out of range");
            c = static_cast<node>(ci);
        }
        const auto rep = representativesFromMap(fineToCoarse, coarseCount);
        const std::uint64_t mc = r.boundedCount(r.varint(), 2, "edges");
        readEdgeList(r, coarseCount, mc, addScratch_);
        edges_ = skeletonEdges(addScratch_, rep);
        // Coarse scores, expanded so every member inherits its cluster's.
        std::vector<float> coarseScores(coarseCount);
        for (auto& s : coarseScores) s = r.f32();
        scores_.resize(nodeCount);
        for (count i = 0; i < nodeCount; ++i) scores_[i] = coarseScores[fineToCoarse[i]];
        views_.resize(viewCount);
        Span view0Colors;
        for (count v = 0; v < viewCount; ++v)
            readLodKeyframeView(r, views_[v], v, nodeCount, fineToCoarse, coarseCount,
                                view0Colors);
        r.expectEnd();
        epoch_ = epoch;
        seq_ = seq;
        hasState_ = true;
        stats.nodeCount = nodeCount;
        stats.edgeCount = edges_.size();
        stats.lodCoarseNodes = coarseCount;
        return stats;
    }

    if (keyframe) {
        if (epoch == 0) throw WireError("keyframe epoch 0");
        // Each node takes at least 4 bytes of score, 6 per view of quantized
        // position, and one colour-index byte in view 0 (every other view
        // may back-reference view 0's colours).
        r.boundedCount(nodeCount, 4 + 6 * static_cast<std::size_t>(viewCount) + 1, "nodes");
        hasState_ = false; // a partial decode must not look committed
        const std::uint64_t m = r.boundedCount(r.varint(), 2, "edges");
        readEdgeList(r, nodeCount, m, edges_);
        scores_.resize(nodeCount);
        for (auto& s : scores_) s = r.f32();
        views_.resize(viewCount);
        Span view0Colors;
        for (count v = 0; v < viewCount; ++v)
            readKeyframeView(r, views_[v], v, nodeCount, view0Colors);
        r.expectEnd();
        epoch_ = epoch;
        seq_ = seq;
        hasState_ = true;
        stats.nodeCount = nodeCount;
        stats.edgeCount = edges_.size();
        return stats;
    }

    if (!hasState_) throw WireError("delta frame without client state");
    if (epoch != epoch_ || seq != seq_ + 1) throw WireError("delta base mismatch");
    if (nodeCount != scores_.size()) throw WireError("node count mismatch");
    if (viewCount != views_.size()) throw WireError("view count mismatch");

    const std::uint64_t removedCount = r.boundedCount(r.varint(), 2, "removed edges");
    readEdgeList(r, nodeCount, removedCount, removeScratch_);
    const std::uint64_t addedCount = r.boundedCount(r.varint(), 2, "added edges");
    readEdgeList(r, nodeCount, addedCount, addScratch_);
    applyEdgeDiff(edges_, removeScratch_, addScratch_, mergeScratch_);
    stats.edgesRemoved = removedCount;
    stats.edgesAdded = addedCount;

    r.indexSet(nodeCount, 4, "score changes", scoreChangedIdx_);
    for (const auto idx : scoreChangedIdx_) scores_[idx] = r.f32();

    if (touchStamp_.size() < nodeCount) touchStamp_.assign(nodeCount, 0);
    Span view0Colors;
    for (count v = 0; v < viewCount; ++v)
        stats.markersTouched += readDeltaView(r, views_[v], v, nodeCount, view0Colors);
    r.expectEnd();
    seq_ = seq;
    stats.nodeCount = nodeCount;
    stats.edgeCount = edges_.size();
    return stats;
}

void FrameDecoder::readViewHeader(ByteReader& r, ViewState& view) {
    view.title = r.string(1 << 16);
    view.grid.lo = {r.f64(), r.f64(), r.f64()};
    view.grid.hi = {r.f64(), r.f64(), r.f64()};
    // NaN bounds fail the comparison too, so a corrupt grid is rejected
    // before it can poison every dequantized coordinate.
    if (!(view.grid.lo.x <= view.grid.hi.x && view.grid.lo.y <= view.grid.hi.y &&
          view.grid.lo.z <= view.grid.hi.z)) {
        throw WireError("invalid quantization grid");
    }
    view.nodeSize = r.f64();
}

void FrameDecoder::readKeyframeView(ByteReader& r, ViewState& view, count v, count nodes,
                                    Span& view0Colors) {
    readViewHeader(r, view);
    view.qpos.resize(nodes);
    for (auto& q : view.qpos) q = {r.u16(), r.u16(), r.u16()};
    readColorSection(r, v, view0Colors, [&](ByteReader& cr) {
        const std::uint64_t paletteSize = cr.boundedCount(cr.varint(), 3, "palette");
        view.palette.clear();
        readPalette(cr, view.palette, paletteSize);
        view.colorIndex.resize(nodes);
        for (auto& ci : view.colorIndex) {
            const std::uint64_t pi = cr.varint();
            if (pi >= paletteSize) throw WireError("palette index out of range");
            ci = static_cast<std::uint32_t>(pi);
        }
    });
}

void FrameDecoder::readLodKeyframeView(ByteReader& r, ViewState& view, count v, count nodes,
                                       const std::vector<node>& fineToCoarse,
                                       count coarseNodes, Span& view0Colors) {
    readViewHeader(r, view);
    // Coarse positions / colors, expanded through the prolongation map so
    // the state is fine-shaped (the refine frame is an ordinary delta).
    std::vector<std::array<std::uint16_t, 3>> coarseQ(coarseNodes);
    for (auto& q : coarseQ) q = {r.u16(), r.u16(), r.u16()};
    std::vector<std::uint32_t> coarseCi(coarseNodes);
    readColorSection(r, v, view0Colors, [&](ByteReader& cr) {
        const std::uint64_t paletteSize = cr.boundedCount(cr.varint(), 3, "palette");
        view.palette.clear();
        readPalette(cr, view.palette, paletteSize);
        for (auto& ci : coarseCi) {
            const std::uint64_t pi = cr.varint();
            if (pi >= paletteSize) throw WireError("palette index out of range");
            ci = static_cast<std::uint32_t>(pi);
        }
    });
    view.qpos.resize(nodes);
    view.colorIndex.resize(nodes);
    for (count i = 0; i < nodes; ++i) {
        view.qpos[i] = coarseQ[fineToCoarse[i]];
        view.colorIndex[i] = coarseCi[fineToCoarse[i]];
    }
}

count FrameDecoder::readDeltaView(ByteReader& r, ViewState& view, count v, count nodes,
                                  Span& view0Colors) {
    if (++stampGeneration_ == 0) {
        std::fill(touchStamp_.begin(), touchStamp_.end(), 0);
        stampGeneration_ = 1;
    }
    count touched = 0;
    const auto mark = [&](std::uint64_t i) {
        if (touchStamp_[i] != stampGeneration_) {
            touchStamp_[i] = stampGeneration_;
            ++touched;
        }
    };

    r.indexSet(nodes, 3, "position changes", changedIdx_);
    for (const auto idx : changedIdx_) {
        for (int a = 0; a < 3; ++a) {
            const std::int64_t q =
                static_cast<std::int64_t>(view.qpos[idx][a]) + r.svarint();
            if (q < 0 || q > 65535) throw WireError("quantized position out of range");
            view.qpos[idx][a] = static_cast<std::uint16_t>(q);
        }
        mark(idx);
    }

    // Palette growth ships ahead of the indices that reference it.
    readColorSection(r, v, view0Colors, [&](ByteReader& cr) {
        readPalette(cr, view.palette, cr.boundedCount(cr.varint(), 3, "palette growth"));
        cr.indexSet(nodes, 1, "color changes", changedIdx_);
        for (const auto idx : changedIdx_) {
            const std::uint64_t pi = cr.varint();
            if (pi >= view.palette.size()) throw WireError("palette index out of range");
            view.colorIndex[idx] = static_cast<std::uint32_t>(pi);
            mark(idx);
        }
    });

    // Score changes update the hover text of the same marker in every view.
    for (const auto idx : scoreChangedIdx_) mark(idx);
    return touched;
}

// -------------------------------------------------------------- DeltaEncoder

std::uint32_t DeltaEncoder::paletteIndexOf(count viewIdx, const viz::Color& c) {
    const std::uint32_t key = (static_cast<std::uint32_t>(c.r & 0xff) << 16) |
                              (static_cast<std::uint32_t>(c.g & 0xff) << 8) |
                              static_cast<std::uint32_t>(c.b & 0xff);
    auto [it, inserted] = paletteLookup_[viewIdx].try_emplace(
        key, static_cast<std::uint32_t>(shadow_[viewIdx].palette.size()));
    if (inserted) shadow_[viewIdx].palette.push_back(c);
    return it->second;
}

const char* DeltaEncoder::keyframeReason(const std::vector<const viz::Scene*>& views,
                                         Ack clientAck) const {
    if (!hasState_) return "first";
    if (forceKeyframe_) return "forced";
    if (clientAck.epoch != epoch_ || clientAck.seq != seq_) return "resync";
    if (views.size() != shadow_.size()) return "shape";
    for (count v = 0; v < views.size(); ++v) {
        const viz::Scene& s = *views[v];
        const ViewState& sh = shadow_[v];
        if (s.nodeCount() != sh.qpos.size()) return "shape";
        if (s.title != sh.title) return "shape";
        if (sceneNodeSize(s) != sh.nodeSize) return "shape";
    }
    if (options_.keyframeInterval > 0 && seq_ + 1 >= options_.keyframeInterval)
        return "periodic";
    for (count v = 0; v < views.size(); ++v) {
        for (const auto& p : views[v]->nodePositions) {
            if (!shadow_[v].grid.contains(p)) return "grid";
        }
    }
    return nullptr;
}

Bytes DeltaEncoder::takeRefineFrame() {
    if (!hasRefine_) throw std::logic_error("DeltaEncoder: no refine frame pending");
    hasRefine_ = false;
    return std::move(refineFrame_);
}

Bytes DeltaEncoder::encode(const std::vector<const viz::Scene*>& views,
                           const std::vector<double>& scores, Ack clientAck,
                           const EdgeDiffHint* edgeDiff,
                           const LodProvider& lodProvider) {
    if (views.empty()) throw std::invalid_argument("DeltaEncoder: no views");
    for (const auto* v : views) {
        if (v == nullptr) throw std::invalid_argument("DeltaEncoder: null view");
        if (v->nodeCount() != views[0]->nodeCount())
            throw std::invalid_argument("DeltaEncoder: views disagree on node count");
    }
    if (scores.size() != views[0]->nodeCount())
        throw std::invalid_argument("DeltaEncoder: scores size != node count");
    if (!hasState_ && edgeDiff != nullptr)
        throw std::logic_error("DeltaEncoder: edge diff hint without encoder state");
    if (hasRefine_)
        throw std::logic_error("DeltaEncoder: refine frame not taken before next encode");

    stats_ = FrameStats{};
    const char* reason = keyframeReason(views, clientAck);
    resolveEdges(views, edgeDiff);

    // A keyframe about to fire is the one moment the (lazy) LOD mapping is
    // worth computing: a usable coarsening turns the keyframe into the
    // coarse+refine pair.
    const LodMapping* lod = nullptr;
    if (reason != nullptr && lodProvider) {
        lod = lodProvider();
        if (lod != nullptr &&
            (lod->coarseNodes == 0 || lod->fineNodes != views[0]->nodeCount() ||
             lod->coarseNodes >= lod->fineNodes ||
             lod->fineToCoarse.size() != lod->fineNodes)) {
            lod = nullptr; // mapping absent or does not coarsen: full keyframe
        }
    }

    Bytes out;
    if (reason != nullptr && lod != nullptr) {
        stats_.keyframe = true;
        stats_.reason = reason;
        out = encodeLodPair(views, scores, *lod);
    } else if (reason != nullptr) {
        stats_.keyframe = true;
        stats_.reason = reason;
        out = encodeKeyframe(views, scores);
    } else {
        stats_.reason = "delta";
        out = encodeDelta(views, scores);
        // Patch-cost guard: a delta that touches at least as many client
        // elements as a keyframe rebuild (e.g. a cutoff jump that churns
        // more edges than survive) should ship as the keyframe — same
        // information, cheaper to apply. The per-view change sums
        // overestimate the decoder's distinct-marker count, so this only
        // fires when the delta is genuinely not cheaper.
        const std::uint64_t deltaCost = stats_.positionsChanged + stats_.colorsChanged +
                                        stats_.scoresChanged +
                                        views.size() * (stats_.edgesAdded + stats_.edgesRemoved);
        const std::uint64_t keyframeCost =
            views.size() * (views[0]->nodeCount() + edges_.size());
        if (deltaCost >= keyframeCost) {
            stats_.keyframe = true;
            stats_.reason = "cost";
            stats_.bitmapSets = 0; // the discarded delta's codings
            stats_.colorBackRefs = 0;
            // The cost trigger is only discovered here, after the delta
            // attempt — fetch the LOD mapping now. This is the fig 7
            // worst-case jump the coarse-first path exists for.
            if (lodProvider) {
                lod = lodProvider();
                if (lod != nullptr &&
                    (lod->coarseNodes == 0 || lod->fineNodes != views[0]->nodeCount() ||
                     lod->coarseNodes >= lod->fineNodes ||
                     lod->fineToCoarse.size() != lod->fineNodes)) {
                    lod = nullptr;
                }
            }
            out = lod != nullptr ? encodeLodPair(views, scores, *lod)
                                 : encodeKeyframe(views, scores);
        }
    }
    stats_.bytes = out.size();
    forceKeyframe_ = false;
    hasState_ = true;
    return out;
}

void DeltaEncoder::resolveEdges(const std::vector<const viz::Scene*>& views,
                                const EdgeDiffHint* edgeDiff) {
    static const std::vector<Edge> kNoEdges;
    if (edgeDiff != nullptr) {
        pendingRemoved_ = edgeDiff->removed != nullptr ? edgeDiff->removed : &kNoEdges;
        pendingAdded_ = edgeDiff->added != nullptr ? edgeDiff->added : &kNoEdges;
        applyEdgeDiff(edges_, *pendingRemoved_, *pendingAdded_, mergeScratch_);
    } else {
        // Full edge list mode: the scene carries the truth, diff it
        // against the shadow (empty lists on the very first frame).
        if (hasState_) {
            diffSorted(edges_, views[0]->edges, addScratch_, removeScratch_);
        } else {
            addScratch_.assign(views[0]->edges.begin(), views[0]->edges.end());
            removeScratch_.clear();
        }
        pendingAdded_ = &addScratch_;
        pendingRemoved_ = &removeScratch_;
        edges_ = views[0]->edges;
    }
    stats_.edgesAdded = pendingAdded_->size();
    stats_.edgesRemoved = pendingRemoved_->size();
}

void DeltaEncoder::rebuildViewState(count viewIdx, const viz::Scene& scene,
                                    bool tryReuseGrid) {
    ViewState& view = shadow_[viewIdx];
    const count n = scene.nodeCount();
    view.title = scene.title;
    view.nodeSize = sceneNodeSize(scene);
    bool reuse = tryReuseGrid;
    if (reuse) {
        for (const auto& p : scene.nodePositions) {
            if (!view.grid.contains(p)) {
                reuse = false;
                break;
            }
        }
    }
    if (!reuse) {
        QuantGrid fresh = paddedGrid(scene.nodePositions, options_.gridPadding);
        if (!view.qpos.empty()) {
            // Sticky grids: union the new box with the previous epoch's so a
            // scene oscillating between a few layouts (cutoff toggles, short
            // frame cycles) converges to one covering grid instead of
            // re-keying on every swing. The error bound grows with the union
            // extent but stays extent/(2*65535) per axis — sub-0.01 Å even
            // for boxes ten times the protein.
            fresh.lo = Point3{std::min(fresh.lo.x, view.grid.lo.x),
                              std::min(fresh.lo.y, view.grid.lo.y),
                              std::min(fresh.lo.z, view.grid.lo.z)};
            fresh.hi = Point3{std::max(fresh.hi.x, view.grid.hi.x),
                              std::max(fresh.hi.y, view.grid.hi.y),
                              std::max(fresh.hi.z, view.grid.hi.z)};
        }
        view.grid = fresh;
    }
    view.qpos.resize(n);
    for (count i = 0; i < n; ++i) view.qpos[i] = view.grid.quantize(scene.nodePositions[i]);
    // Sticky palettes, for the same reason as sticky grids: the delta path
    // only ever appends, so a keyframe that kept the accumulated palette
    // decodes to exactly the delta-accumulated client state — which is
    // what makes a migration resync byte-identical to an unmigrated
    // stream. Entries cost 3 bytes each, so retaining stale colors across
    // epochs is noise next to re-keying the color indices.
    view.colorIndex.resize(n);
    for (count i = 0; i < n; ++i)
        view.colorIndex[i] = paletteIndexOf(viewIdx, scene.nodeColors[i]);
}

Bytes DeltaEncoder::encodeKeyframe(const std::vector<const viz::Scene*>& views,
                                   const std::vector<double>& scores) {
    const count n = views[0]->nodeCount();
    // Grid reuse (same epoch box while positions still fit) is what makes
    // a forced/periodic keyframe decode bit-identical to the accumulated
    // delta state; it only applies when the view layout is unchanged.
    const bool tryReuseGrid = hasState_ && views.size() == shadow_.size();
    shadow_.resize(views.size());
    paletteLookup_.resize(views.size());
    epoch_ += 1;
    seq_ = 0;
    scores_.resize(n);
    for (count i = 0; i < n; ++i) scores_[i] = static_cast<float>(scores[i]);
    for (count v = 0; v < views.size(); ++v) rebuildViewState(v, *views[v], tryReuseGrid);

    ByteWriter w;
    w.reserve(64 + edges_.size() * 4 + views.size() * (n * 12 + 128));
    w.u32(kFrameMagic);
    w.u8(kFrameVersion);
    w.u8(1); // keyframe
    w.u32(epoch_);
    w.u32(seq_);
    w.varint(n);
    w.varint(views.size());
    w.varint(edges_.size());
    writeEdgeList(w, edges_);
    for (const float s : scores_) w.f32(s);
    Span view0Colors;
    for (count v = 0; v < shadow_.size(); ++v) {
        const ViewState& view = shadow_[v];
        writeViewHeader(w, view);
        for (const auto& q : view.qpos) {
            w.u16(q[0]);
            w.u16(q[1]);
            w.u16(q[2]);
        }
        stats_.colorBackRefs += writeColorSection(w, v, view0Colors, [&] {
            w.varint(view.palette.size());
            writePalette(w, view.palette, 0);
            for (const auto ci : view.colorIndex) w.varint(ci);
        });
    }
    return w.take();
}

Bytes DeltaEncoder::encodeLodPair(const std::vector<const viz::Scene*>& views,
                                  const std::vector<double>& scores,
                                  const LodMapping& lod) {
    const count n = views[0]->nodeCount();
    const count nc = lod.coarseNodes;
    const auto rep = representativesFromMap(lod.fineToCoarse, nc);

    // resolveEdges already advanced edges_ to the true fine set; keep it
    // aside — the coarse frame ships the skeleton and the refine delta
    // moves the client from skeleton to fine.
    lodFineEdges_ = edges_;

    // Build the *fine* shadow first (grids, sticky palettes, fine qpos /
    // color indices), exactly as a full keyframe would: the coarse arrays
    // are derived from it, and the palette shipped in the coarse frame is
    // already complete so the refine delta grows it by nothing.
    const bool tryReuseGrid = hasState_ && views.size() == shadow_.size();
    shadow_.resize(views.size());
    paletteLookup_.resize(views.size());
    epoch_ += 1;
    seq_ = 0;
    scores_.resize(n);
    for (count i = 0; i < n; ++i) scores_[i] = static_cast<float>(scores[i]);
    for (count v = 0; v < views.size(); ++v) rebuildViewState(v, *views[v], tryReuseGrid);

    // Coarse per-node data: score/color from the cluster representative,
    // position from the cluster centroid (quantized in the view's grid —
    // centroids of in-grid points stay in-grid).
    std::vector<float> coarseScores(nc);
    for (count c = 0; c < nc; ++c) coarseScores[c] = scores_[rep[c]];
    std::vector<count> clusterSize(nc, 0);
    for (count i = 0; i < n; ++i) ++clusterSize[lod.fineToCoarse[i]];
    std::vector<std::vector<std::array<std::uint16_t, 3>>> coarseQ(views.size());
    std::vector<std::vector<std::uint32_t>> coarseCi(views.size());
    std::vector<Point3> centroid(nc);
    for (count v = 0; v < views.size(); ++v) {
        const viz::Scene& scene = *views[v];
        std::fill(centroid.begin(), centroid.end(), Point3{0.0, 0.0, 0.0});
        for (count i = 0; i < n; ++i) {
            const Point3& p = scene.nodePositions[i];
            Point3& acc = centroid[lod.fineToCoarse[i]];
            acc = acc + p;
        }
        coarseQ[v].resize(nc);
        coarseCi[v].resize(nc);
        for (count c = 0; c < nc; ++c) {
            const Point3 mean = centroid[c] * (1.0 / static_cast<double>(clusterSize[c]));
            coarseQ[v][c] = shadow_[v].grid.quantize(mean);
            coarseCi[v][c] = shadow_[v].colorIndex[rep[c]];
        }
    }

    // Coarse keyframe bytes.
    ByteWriter w;
    w.reserve(64 + n + lod.coarseEdges.size() * 4 +
              views.size() * (nc * 12 + 128));
    w.u32(kFrameMagic);
    w.u8(kFrameVersion);
    w.u8(kFlagKeyframe | kFlagLodCoarse);
    w.u32(epoch_);
    w.u32(seq_);
    w.varint(n);
    w.varint(views.size());
    w.varint(nc);
    for (count i = 0; i < n; ++i) w.varint(lod.fineToCoarse[i]);
    w.varint(lod.coarseEdges.size());
    writeEdgeList(w, lod.coarseEdges);
    for (const float s : coarseScores) w.f32(s);
    Span view0Colors;
    for (count v = 0; v < views.size(); ++v) {
        const ViewState& view = shadow_[v];
        writeViewHeader(w, view);
        for (const auto& q : coarseQ[v]) {
            w.u16(q[0]);
            w.u16(q[1]);
            w.u16(q[2]);
        }
        stats_.colorBackRefs += writeColorSection(w, v, view0Colors, [&] {
            w.varint(view.palette.size());
            writePalette(w, view.palette, 0);
            for (const auto ci : coarseCi[v]) w.varint(ci);
        });
    }
    Bytes coarseFrame = w.take();

    // Mirror the decoder: expand the shadow to the coarse-inherited fine
    // state, so the refine frame is an ordinary delta against it.
    for (count i = 0; i < n; ++i) scores_[i] = coarseScores[lod.fineToCoarse[i]];
    for (count v = 0; v < views.size(); ++v) {
        ViewState& view = shadow_[v];
        for (count i = 0; i < n; ++i) {
            view.qpos[i] = coarseQ[v][lod.fineToCoarse[i]];
            view.colorIndex[i] = coarseCi[v][lod.fineToCoarse[i]];
        }
    }
    edges_ = skeletonEdges(lod.coarseEdges, rep);

    stats_.lodCoarse = true;
    stats_.lodCoarseNodes = nc;
    stats_.lodLevels = lod.levels;

    // Refine delta: skeleton -> fine edges, inherited -> true positions /
    // colors / scores. encodeDelta consumes pending edge lists and updates
    // the shadow to the true fine state.
    const FrameStats coarseStats = stats_;
    stats_ = FrameStats{};
    diffSorted(edges_, lodFineEdges_, addScratch_, removeScratch_);
    pendingAdded_ = &addScratch_;
    pendingRemoved_ = &removeScratch_;
    stats_.edgesAdded = pendingAdded_->size();
    stats_.edgesRemoved = pendingRemoved_->size();
    edges_ = lodFineEdges_;
    refineFrame_ = encodeDelta(views, scores);
    stats_.reason = "lod_refine";
    stats_.bytes = refineFrame_.size();
    refineStats_ = stats_;
    stats_ = coarseStats;
    hasRefine_ = true;
    return coarseFrame;
}

Bytes DeltaEncoder::encodeDelta(const std::vector<const viz::Scene*>& views,
                                const std::vector<double>& scores) {
    const count n = views[0]->nodeCount();
    seq_ += 1;

    ByteWriter w;
    w.reserve(64 + (pendingAdded_->size() + pendingRemoved_->size()) * 4 + n / 2);
    w.u32(kFrameMagic);
    w.u8(kFrameVersion);
    w.u8(0); // delta
    w.u32(epoch_);
    w.u32(seq_);
    w.varint(n);
    w.varint(views.size());
    w.varint(pendingRemoved_->size());
    writeEdgeList(w, *pendingRemoved_);
    w.varint(pendingAdded_->size());
    writeEdgeList(w, *pendingAdded_);

    // Shared scores: bit-pattern compare (NaN-safe) against the shadow.
    changedScratch_.clear();
    for (count i = 0; i < n; ++i) {
        if (floatBits(static_cast<float>(scores[i])) != floatBits(scores_[i]))
            changedScratch_.push_back(static_cast<node>(i));
    }
    stats_.bitmapSets += w.indexSet(changedScratch_, n);
    for (const node i : changedScratch_) {
        scores_[i] = static_cast<float>(scores[i]);
        w.f32(scores_[i]);
    }
    stats_.scoresChanged = changedScratch_.size();

    Span view0Colors;
    for (count v = 0; v < views.size(); ++v) {
        ViewState& view = shadow_[v];
        const viz::Scene& scene = *views[v];

        qScratch_.resize(n);
        changedScratch_.clear();
        for (count i = 0; i < n; ++i) {
            qScratch_[i] = view.grid.quantize(scene.nodePositions[i]);
            if (qScratch_[i] != view.qpos[i]) changedScratch_.push_back(static_cast<node>(i));
        }
        stats_.bitmapSets += w.indexSet(changedScratch_, n);
        for (const node i : changedScratch_) {
            for (int a = 0; a < 3; ++a) {
                w.svarint(static_cast<std::int64_t>(qScratch_[i][a]) -
                          static_cast<std::int64_t>(view.qpos[i][a]));
            }
            view.qpos[i] = qScratch_[i];
        }
        stats_.positionsChanged += changedScratch_.size();

        // Mapping colours may grow the palette; the growth ships ahead of
        // the indices that reference it.
        colorIdxScratch_.resize(n);
        const count oldPalette = view.palette.size();
        changedScratch_.clear();
        for (count i = 0; i < n; ++i) {
            colorIdxScratch_[i] = paletteIndexOf(v, scene.nodeColors[i]);
            if (colorIdxScratch_[i] != view.colorIndex[i])
                changedScratch_.push_back(static_cast<node>(i));
        }
        bool colorBitmap = false;
        const bool backRef = writeColorSection(w, v, view0Colors, [&] {
            w.varint(view.palette.size() - oldPalette);
            writePalette(w, view.palette, oldPalette);
            colorBitmap = w.indexSet(changedScratch_, n);
            for (const node i : changedScratch_) w.varint(colorIdxScratch_[i]);
        });
        stats_.colorBackRefs += backRef;
        stats_.bitmapSets += colorBitmap && !backRef;
        for (const node i : changedScratch_) view.colorIndex[i] = colorIdxScratch_[i];
        stats_.colorsChanged += changedScratch_.size();
    }
    return w.take();
}

} // namespace rinkit::wire
