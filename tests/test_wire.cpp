// Tests for the binary wire protocol (rinkit::wire): primitive codec
// round-trips, keyframe/delta scene-frame round-trips, the delta-stream ==
// keyframe bit-identity invariant, bitmap index sets and shared colour
// sections, resync/keyframe triggers, and hostile-input rejection
// (truncation, byte flips, bad headers, malformed bitmaps). The
// robustness tests double as the ASan/UBSan fuzz target that
// scripts/verify.sh --wire runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "src/layout/coarsening.hpp"
#include "src/viz/scene.hpp"
#include "src/wire/scene_frame.hpp"
#include "src/wire/wire_format.hpp"

namespace rinkit::wire {
namespace {

using Edge = std::pair<node, node>;

// ------------------------------------------------------------- primitives

TEST(WireFormat, VarintRoundTrip) {
    const std::uint64_t values[] = {0,      1,         127,        128,
                                    300,    16383,     16384,      0xffffffffull,
                                    1ull << 56, ~0ull};
    ByteWriter w;
    for (const auto v : values) w.varint(v);
    ByteReader r(w.bytes());
    for (const auto v : values) EXPECT_EQ(r.varint(), v);
    r.expectEnd();
}

TEST(WireFormat, SvarintRoundTrip) {
    const std::int64_t values[] = {0,  1,  -1, 2, -2, 63, -64, 12345, -54321,
                                   std::numeric_limits<std::int64_t>::max(),
                                   std::numeric_limits<std::int64_t>::min()};
    ByteWriter w;
    for (const auto v : values) w.svarint(v);
    ByteReader r(w.bytes());
    for (const auto v : values) EXPECT_EQ(r.svarint(), v);
    r.expectEnd();
}

TEST(WireFormat, ZigzagKeepsSmallMagnitudesSmall) {
    EXPECT_EQ(zigzagEncode(0), 0u);
    EXPECT_EQ(zigzagEncode(-1), 1u);
    EXPECT_EQ(zigzagEncode(1), 2u);
    EXPECT_EQ(zigzagEncode(-2), 3u);
    for (std::int64_t v : {-65535ll, -1ll, 0ll, 1ll, 65535ll})
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v);
}

TEST(WireFormat, ScalarsAndStringsRoundTrip) {
    ByteWriter w;
    w.u8(0xab);
    w.u16(0xbeef);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.f32(3.5f);
    w.f64(-2.25);
    w.string("maxent view");
    ByteReader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.f32(), 3.5f);
    EXPECT_EQ(r.f64(), -2.25);
    EXPECT_EQ(r.string(), "maxent view");
    r.expectEnd();
}

TEST(WireFormat, TruncatedReadsThrow) {
    const Bytes two = {0x01, 0x02};
    EXPECT_THROW(ByteReader(two).u32(), WireError);
    EXPECT_THROW(ByteReader(two).u64(), WireError);
    const Bytes cont = {0x80}; // continuation bit set, no next byte
    EXPECT_THROW(ByteReader(cont).varint(), WireError);
}

TEST(WireFormat, OverlongVarintRejected) {
    Bytes overlong(11, 0x80);
    EXPECT_THROW(ByteReader(overlong).varint(), WireError);
}

TEST(WireFormat, BoundedCountRejectsDishonestCounts) {
    const Bytes small(16, 0);
    ByteReader r(small);
    EXPECT_EQ(r.boundedCount(4, 4, "items"), 4u);
    EXPECT_THROW(r.boundedCount(5, 4, "items"), WireError);
    // A hostile count near 2^64 must not overflow the check either.
    EXPECT_THROW(r.boundedCount(~0ull, 4, "items"), WireError);
}

TEST(WireFormat, IndexSetPicksTheShorterCodingAndRoundTrips) {
    const count n = 100;
    std::vector<node> dense, sparse = {3, 97};
    for (node i = 0; i < n; i += 2) dense.push_back(i);
    std::vector<std::uint64_t> got;

    // Each set is followed by one value byte per index, as in a frame.
    ByteWriter w;
    EXPECT_TRUE(w.indexSet(dense, n)); // 50 gap bytes vs a 13-byte bitmap
    EXPECT_EQ(w.size(), 1 + (n + 7) / 8);
    for (const node i : dense) w.u8(static_cast<std::uint8_t>(i));
    EXPECT_FALSE(w.indexSet(sparse, n)); // 2 gap bytes vs 13
    for (const node i : sparse) w.u8(static_cast<std::uint8_t>(i));
    EXPECT_FALSE(w.indexSet({}, n));
    ByteReader r(w.bytes());
    for (const auto* want : {&dense, &sparse}) {
        r.indexSet(n, 1, "set", got);
        ASSERT_EQ(got, std::vector<std::uint64_t>(want->begin(), want->end()));
        for (const auto i : got) EXPECT_EQ(r.u8(), i);
    }
    r.indexSet(n, 1, "empty", got);
    EXPECT_TRUE(got.empty());
    r.expectEnd();
}

TEST(WireFormat, IndexSetRejectsHostileBitmapsAndGaps) {
    const count n = 13; // the last bitmap byte has 3 bits past n
    std::vector<std::uint64_t> got;
    const auto read = [&](const Bytes& b) {
        ByteReader r(b);
        r.indexSet(n, 1, "set", got);
    };
    EXPECT_THROW(read({(1 << 1) | 1, 0x00, 0x20}), WireError); // bit 13 >= n
    EXPECT_THROW(read({(2 << 1) | 1, 0x01, 0x00}), WireError); // popcount 1, count 2
    EXPECT_THROW(read({(1 << 1) | 1, 0x01, 0x00}), WireError); // no byte for the value
    EXPECT_THROW(read({(1 << 1) | 1, 0x01}), WireError);       // truncated bitmap
    EXPECT_THROW(read({1 << 1, 13}), WireError);               // gap >= n
    EXPECT_THROW(read({2 << 1, 5, 7}), WireError);             // 5 + 1 + 7 >= n
    EXPECT_NO_THROW(read({(1 << 1) | 1, 0x00, 0x10, 0x00}));   // bit 12, one value byte
    EXPECT_EQ(got, (std::vector<std::uint64_t>{12}));
}

TEST(WireFormat, StringLengthCapEnforced) {
    ByteWriter w;
    w.string(std::string(100, 'x'));
    ByteReader r(w.bytes());
    EXPECT_THROW(r.string(10), WireError);
}

// ------------------------------------------------------------- QuantGrid

TEST(QuantGrid, ErrorWithinBound) {
    const QuantGrid grid{{-12.0, -3.0, 0.0}, {9.0, 14.0, 31.0}};
    const Point3 err = grid.maxError();
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> ux(grid.lo.x, grid.hi.x);
    std::uniform_real_distribution<double> uy(grid.lo.y, grid.hi.y);
    std::uniform_real_distribution<double> uz(grid.lo.z, grid.hi.z);
    for (int i = 0; i < 2000; ++i) {
        const Point3 p{ux(rng), uy(rng), uz(rng)};
        const Point3 q = grid.dequantize(grid.quantize(p));
        EXPECT_LE(std::abs(p.x - q.x), err.x * (1.0 + 1e-9));
        EXPECT_LE(std::abs(p.y - q.y), err.y * (1.0 + 1e-9));
        EXPECT_LE(std::abs(p.z - q.z), err.z * (1.0 + 1e-9));
    }
}

TEST(QuantGrid, DegenerateAxisMapsToLo) {
    const QuantGrid grid{{0.0, 5.0, 0.0}, {1.0, 5.0, 1.0}}; // flat y
    const auto q = grid.quantize({0.5, 5.0, 0.25});
    EXPECT_EQ(q[1], 0);
    EXPECT_EQ(grid.dequantize(q).y, 5.0);
    EXPECT_EQ(grid.maxError().y, 0.0);
}

// ----------------------------------------------------- scene-frame fixture

/// Deterministic synthetic two-view state: positions, a small palette of
/// colors, sorted edge set, per-node scores. step() mutates it the way the
/// widget does between updates (position drift inside the bounding box,
/// some color/score changes, an edge churn).
struct TestWorld {
    static constexpr count kNodes = 48;
    std::mt19937 rng{12345};
    std::vector<Point3> posA, posB;
    std::vector<viz::Color> colA, colB;
    std::vector<double> scores;
    std::vector<Edge> edges;

    TestWorld() {
        std::uniform_real_distribution<double> u(-10.0, 10.0);
        for (count i = 0; i < kNodes; ++i) {
            posA.push_back({u(rng), u(rng), u(rng)});
            posB.push_back({u(rng), u(rng), u(rng)});
            colA.push_back(colorOf(i % 5));
            colB.push_back(colorOf((i + 2) % 5));
            scores.push_back(static_cast<double>(i) * 0.25);
        }
        for (node u2 = 0; u2 < kNodes; ++u2) {
            for (node v = u2 + 1; v < kNodes; v += 5) edges.push_back({u2, v});
        }
        std::sort(edges.begin(), edges.end());
    }

    static viz::Color colorOf(count i) {
        return viz::Color{static_cast<int>(40 * i + 10), static_cast<int>(20 * i),
                          static_cast<int>(255 - 30 * i)};
    }

    viz::Scene sceneA(bool withEdges = true) const { return scene("protein", posA, colA, withEdges); }
    viz::Scene sceneB(bool withEdges = true) const { return scene("maxent", posB, colB, withEdges); }

    viz::Scene scene(std::string title, const std::vector<Point3>& pos,
                     const std::vector<viz::Color>& col, bool withEdges) const {
        viz::Scene s;
        s.title = std::move(title);
        s.nodePositions = pos;
        s.nodeColors = col;
        s.nodeSizes = {6.0};
        if (withEdges) s.edges = edges;
        return s;
    }

    /// Mutates in place; the drift stays well inside the initial bounding
    /// box (plus grid padding) so delta frames never trip the grid trigger.
    void step() {
        std::uniform_real_distribution<double> jitter(-0.05, 0.05);
        std::uniform_int_distribution<count> pick(0, kNodes - 1);
        for (count i = 0; i < kNodes; i += 3) {
            posA[i].x += jitter(rng);
            posA[i].y += jitter(rng);
            posB[i].z += jitter(rng);
        }
        colA[pick(rng)] = colorOf(pick(rng) % 5);
        colB[pick(rng)] = viz::Color{static_cast<int>(pick(rng) % 256), 7, 7}; // palette growth
        scores[pick(rng)] += 1.0;
        // Edge churn: drop the first edge, add a fresh one (kept sorted).
        if (!edges.empty()) edges.erase(edges.begin());
        const Edge fresh{0, static_cast<node>(1 + pick(rng) % (kNodes - 1))};
        const auto it = std::lower_bound(edges.begin(), edges.end(), fresh);
        if (it == edges.end() || *it != fresh) edges.insert(it, fresh);
    }
};

/// TestWorld with one colour vector for both views, as RinWidget ships
/// them: a node's colour comes from its score, not from the layout.
struct SharedColorWorld : TestWorld {
    SharedColorWorld() {
        colB = colA;
        for (count i = 0; i < kNodes; ++i) colorId.push_back(i % 5);
    }

    /// Moves every node in view A and every @p strideB-th node in view B
    /// by a few quantization steps, recolours every @p recolorStride-th
    /// node and changes every @p scoreStride-th score: the shape of a
    /// widget update, where small layout moves touch every marker.
    void denseStep(count strideB, count recolorStride, count scoreStride) {
        sign = -sign;
        for (count i = 0; i < kNodes; ++i) {
            posA[i] = posA[i] + Point3{0.004 * sign, -0.003 * sign, 0.002 * sign};
            if (i % strideB == 0) posB[i] = posB[i] + Point3{-0.002 * sign, 0.003 * sign, 0.0};
            if (i % recolorStride == 0) {
                colorId[i] = (colorId[i] + 1) % 5;
                colA[i] = colorOf(colorId[i]);
            }
            if (i % scoreStride == 0) scores[i] += 0.5;
        }
        colB = colA;
    }

    double sign = 1.0;
    std::vector<count> colorId; ///< colA[i] == colorOf(colorId[i])
};

Bytes encodeWorld(DeltaEncoder& enc, const TestWorld& w, Ack ack,
                  const EdgeDiffHint* hint = nullptr) {
    const auto a = w.sceneA();
    const auto b = w.sceneB();
    return enc.encode({&a, &b}, w.scores, ack, hint);
}

// --------------------------------------------------------- keyframe basics

TEST(SceneFrame, KeyframeRoundTrip) {
    TestWorld w;
    DeltaEncoder enc;
    const Bytes frame = encodeWorld(enc, w, Ack{});
    EXPECT_TRUE(enc.lastStats().keyframe);
    EXPECT_STREQ(enc.lastStats().reason, "first");

    FrameDecoder dec;
    const PatchStats stats = dec.apply(frame);
    EXPECT_TRUE(stats.keyframe);
    EXPECT_EQ(stats.nodeCount, TestWorld::kNodes);
    EXPECT_EQ(stats.viewCount, 2u);
    EXPECT_EQ(stats.elementsTouched(), 2 * (TestWorld::kNodes + w.edges.size()));

    // Edges reconstruct exactly; scores at f32 precision.
    EXPECT_EQ(dec.edges(), w.edges);
    ASSERT_EQ(dec.scores().size(), w.scores.size());
    for (count i = 0; i < w.scores.size(); ++i)
        EXPECT_EQ(dec.scores()[i], static_cast<float>(w.scores[i]));

    // Positions within the per-axis quantization error bound; colors exact.
    ASSERT_EQ(dec.views().size(), 2u);
    const std::vector<Point3>* truth[2] = {&w.posA, &w.posB};
    const std::vector<viz::Color>* colors[2] = {&w.colA, &w.colB};
    for (count v = 0; v < 2; ++v) {
        const ViewState& view = dec.views()[v];
        EXPECT_EQ(view.title, v == 0 ? "protein" : "maxent");
        EXPECT_EQ(view.nodeSize, 6.0);
        const Point3 err = view.grid.maxError();
        const auto got = view.positions();
        for (count i = 0; i < TestWorld::kNodes; ++i) {
            EXPECT_LE(std::abs(got[i].x - (*truth[v])[i].x), err.x * (1.0 + 1e-9));
            EXPECT_LE(std::abs(got[i].y - (*truth[v])[i].y), err.y * (1.0 + 1e-9));
            EXPECT_LE(std::abs(got[i].z - (*truth[v])[i].z), err.z * (1.0 + 1e-9));
        }
        EXPECT_EQ(view.resolvedColors(), *colors[v]);
    }
    EXPECT_EQ(dec.ack(), (Ack{1, 0}));
}

TEST(SceneFrame, DeltaFramesAreMuchSmallerThanKeyframes) {
    TestWorld w;
    DeltaEncoder enc;
    FrameDecoder dec;
    dec.apply(encodeWorld(enc, w, Ack{}));
    const std::size_t keyBytes = enc.lastStats().bytes;
    w.step();
    dec.apply(encodeWorld(enc, w, dec.ack()));
    EXPECT_FALSE(enc.lastStats().keyframe);
    EXPECT_LT(enc.lastStats().bytes * 5, keyBytes);
}

// --------------------------------------------- delta-stream bit identity

TEST(SceneFrame, DeltaStreamMatchesKeyframeBitForBit) {
    TestWorld w;
    DeltaEncoder enc;
    FrameDecoder viaDeltas;
    viaDeltas.apply(encodeWorld(enc, w, Ack{}));

    for (int i = 0; i < 6; ++i) {
        w.step();
        const PatchStats stats = viaDeltas.apply(encodeWorld(enc, w, viaDeltas.ack()));
        EXPECT_FALSE(stats.keyframe) << "step " << i;
        EXPECT_GT(stats.markersTouched, 0u);
    }

    // A forced keyframe of the same state must decode (in a fresh decoder)
    // to exactly the delta-accumulated client state: same quantized
    // positions, same grid, same resolved colors, scores, edges.
    enc.forceKeyframe();
    FrameDecoder viaKeyframe;
    viaKeyframe.apply(encodeWorld(enc, w, viaDeltas.ack()));
    EXPECT_STREQ(enc.lastStats().reason, "forced");

    EXPECT_EQ(viaKeyframe.edges(), viaDeltas.edges());
    EXPECT_EQ(viaKeyframe.scores(), viaDeltas.scores());
    ASSERT_EQ(viaKeyframe.views().size(), viaDeltas.views().size());
    for (count v = 0; v < viaKeyframe.views().size(); ++v) {
        const ViewState& kf = viaKeyframe.views()[v];
        const ViewState& dl = viaDeltas.views()[v];
        EXPECT_EQ(kf.grid, dl.grid) << "grid rebuilt instead of reused, view " << v;
        EXPECT_EQ(kf.qpos, dl.qpos) << "quantized positions diverged, view " << v;
        // The keyframe rebuilds its palette compactly (first-occurrence
        // order), so compare resolved colors, not raw indices.
        EXPECT_EQ(kf.resolvedColors(), dl.resolvedColors()) << "view " << v;
        EXPECT_EQ(kf.title, dl.title);
        EXPECT_EQ(kf.nodeSize, dl.nodeSize);
    }
}

// ------------------------------------------ dense sets and shared colours

void writeGapSet(ByteWriter& w, const std::vector<node>& idx) {
    w.varint(static_cast<std::uint64_t>(idx.size()) << 1);
    for (std::size_t k = 0; k < idx.size(); ++k)
        w.varint(k == 0 ? idx[0] : idx[k] - idx[k - 1] - 1);
}

/// Test-local reference encoder: the delta that moves decoder state
/// @p before to @p after (same edge set) with every index set gap-coded
/// and every colour section inline — frame version 2 with both of its
/// savings switched off.
Bytes referenceDelta(const FrameDecoder& before, const FrameDecoder& after) {
    const count n = before.scores().size();
    ByteWriter w;
    w.u32(kFrameMagic);
    w.u8(kFrameVersion);
    w.u8(0);
    w.u32(after.ack().epoch);
    w.u32(after.ack().seq);
    w.varint(n);
    w.varint(before.views().size());
    w.varint(0); // removed edges
    w.varint(0); // added edges
    std::vector<node> idx;
    for (node i = 0; i < n; ++i)
        if (before.scores()[i] != after.scores()[i]) idx.push_back(i);
    writeGapSet(w, idx);
    for (const node i : idx) w.f32(after.scores()[i]);
    for (count v = 0; v < before.views().size(); ++v) {
        const ViewState& b = before.views()[v];
        const ViewState& a = after.views()[v];
        idx.clear();
        for (node i = 0; i < n; ++i)
            if (b.qpos[i] != a.qpos[i]) idx.push_back(i);
        writeGapSet(w, idx);
        for (const node i : idx)
            for (int axis = 0; axis < 3; ++axis) w.svarint(a.qpos[i][axis] - b.qpos[i][axis]);
        w.u8(kColorsInline);
        w.varint(a.palette.size() - b.palette.size());
        for (count p = b.palette.size(); p < a.palette.size(); ++p) {
            w.u8(static_cast<std::uint8_t>(a.palette[p].r));
            w.u8(static_cast<std::uint8_t>(a.palette[p].g));
            w.u8(static_cast<std::uint8_t>(a.palette[p].b));
        }
        idx.clear();
        for (node i = 0; i < n; ++i)
            if (b.colorIndex[i] != a.colorIndex[i]) idx.push_back(i);
        writeGapSet(w, idx);
        for (const node i : idx) w.varint(a.colorIndex[i]);
    }
    return w.take();
}

void expectSameState(const FrameDecoder& x, const FrameDecoder& y) {
    EXPECT_EQ(x.ack(), y.ack());
    EXPECT_EQ(x.edges(), y.edges());
    EXPECT_EQ(x.scores(), y.scores());
    ASSERT_EQ(x.views().size(), y.views().size());
    for (count v = 0; v < x.views().size(); ++v) {
        EXPECT_EQ(x.views()[v].qpos, y.views()[v].qpos) << "view " << v;
        EXPECT_EQ(x.views()[v].colorIndex, y.views()[v].colorIndex) << "view " << v;
        EXPECT_EQ(x.views()[v].palette, y.views()[v].palette) << "view " << v;
    }
}

TEST(SceneFrame, DenseDeltaUsesBitmapsAndColourBackReference) {
    SharedColorWorld w;
    DeltaEncoder enc;
    FrameDecoder dec;
    dec.apply(encodeWorld(enc, w, Ack{}));
    EXPECT_EQ(enc.lastStats().colorBackRefs, 1u); // keyframes share too
    const FrameDecoder before = dec;

    w.denseStep(1, 2, 1);
    const Bytes frame = encodeWorld(enc, w, dec.ack());
    const auto stats = enc.lastStats();
    ASSERT_FALSE(stats.keyframe);
    EXPECT_EQ(stats.positionsChanged, 2 * TestWorld::kNodes);
    EXPECT_EQ(stats.scoresChanged, TestWorld::kNodes);
    EXPECT_EQ(stats.colorsChanged, TestWorld::kNodes); // 24 per view, summed
    // Scores, both position sets and view 0's colours ship as bitmaps;
    // view 1's colours are the one-byte back-reference.
    EXPECT_EQ(stats.bitmapSets, 4u);
    EXPECT_EQ(stats.colorBackRefs, 1u);
    const PatchStats patch = dec.apply(frame);
    EXPECT_EQ(patch.markersTouched, 2 * TestWorld::kNodes);

    // The same change with both savings off decodes to the same state and
    // costs at least 25% more.
    const Bytes reference = referenceDelta(before, dec);
    FrameDecoder viaReference = before;
    viaReference.apply(reference);
    expectSameState(viaReference, dec);
    EXPECT_LE(frame.size() * 10, reference.size() * 8)
        << frame.size() << " vs reference " << reference.size();
}

TEST(SceneFrame, SparseDeltaStaysGapCoded) {
    SharedColorWorld w;
    DeltaEncoder enc;
    FrameDecoder dec;
    dec.apply(encodeWorld(enc, w, Ack{}));
    const FrameDecoder before = dec;
    w.posA[17].x += 0.5;
    w.posB[17].y -= 0.5;
    w.colA[17] = w.colB[17] = viz::Color{1, 2, 3};
    w.scores[17] += 1.0;
    const Bytes frame = encodeWorld(enc, w, dec.ack());
    ASSERT_FALSE(enc.lastStats().keyframe);
    EXPECT_EQ(enc.lastStats().bitmapSets, 0u);
    EXPECT_EQ(enc.lastStats().colorBackRefs, 1u);
    dec.apply(frame);
    // Gap-coded, a one-node change costs what the reference pays, minus
    // view 1's colour section (mode byte, palette growth, one change).
    const Bytes reference = referenceDelta(before, dec);
    EXPECT_EQ(frame.size(), reference.size() - (1 + 1 + 3 + 1 + 1 + 1) + 1);
}

TEST(SceneFrame, DenseDeltaTouchesTheSameElementsAsVersion1) {
    SharedColorWorld w;
    DeltaEncoder enc;
    FrameDecoder dec;
    dec.apply(encodeWorld(enc, w, Ack{}));
    w.denseStep(2, 3, 5);
    w.edges.erase(w.edges.begin() + 3); // one removed edge
    const PatchStats patch = dec.apply(encodeWorld(enc, w, dec.ack()));
    EXPECT_GT(enc.lastStats().bitmapSets, 0u);
    EXPECT_EQ(enc.lastStats().colorBackRefs, 1u);

    // Version 1 counted, per view, every distinct marker with a position,
    // colour or score change, plus each added/removed edge once per view.
    // View A moves every node; view B moves every 2nd and shares the
    // colours (every 3rd) and scores (every 5th).
    count viewB = 0;
    for (count i = 0; i < TestWorld::kNodes; ++i)
        viewB += (i % 2 == 0 || i % 3 == 0 || i % 5 == 0) ? 1 : 0;
    EXPECT_EQ(patch.markersTouched, TestWorld::kNodes + viewB);
    EXPECT_EQ(patch.elementsTouched(), TestWorld::kNodes + viewB + 2 * 1);
}

TEST(SceneFrame, MinimalSharedColourKeyframeAccepted) {
    // 2 views, 0 edges, one colour: per node, a 4-byte score, 2 x 6 bytes
    // of position and view 0's one-byte colour index. Version 1's bound of
    // 4 + 7 x views bytes per node would reject this honest frame.
    const count n = 256;
    viz::Scene a, b;
    for (count i = 0; i < n; ++i) {
        a.nodePositions.push_back({static_cast<double>(i), 0.0, 1.0});
        b.nodePositions.push_back({0.0, static_cast<double>(i), 2.0});
    }
    a.nodeColors.assign(n, viz::Color{9, 9, 9});
    b.nodeColors = a.nodeColors;
    a.nodeSizes = b.nodeSizes = {6.0};
    a.title = "p";
    b.title = "m";
    const std::vector<double> scores(n, 1.0);
    DeltaEncoder enc;
    const Bytes frame = enc.encode({&a, &b}, scores, Ack{}, nullptr);
    EXPECT_EQ(enc.lastStats().colorBackRefs, 1u);

    const std::size_t header = 4 + 1 + 1 + 4 + 4 + 2 + 1; // n = 256: 2-byte varint
    const std::size_t views = 2 * (2 + 6 * 8 + 8);          // title, grid, node size
    const std::size_t colors = (1 + 1 + 3) + 1;             // view 0 palette, view 1 ref
    EXPECT_EQ(frame.size(), header + 1 + views + colors + n * (4 + 2 * 6 + 1));
    EXPECT_LT(frame.size() - header, n * (4 + 7 * 2));

    FrameDecoder dec;
    const PatchStats stats = dec.apply(frame);
    EXPECT_TRUE(stats.keyframe);
    EXPECT_EQ(dec.views()[1].resolvedColors(), b.nodeColors);
    EXPECT_EQ(dec.views()[1].palette, dec.views()[0].palette);
}

// ----------------------------------------------------- keyframe triggers

TEST(SceneFrame, ResyncAfterClientStateLoss) {
    TestWorld w;
    DeltaEncoder enc;
    FrameDecoder dec;
    dec.apply(encodeWorld(enc, w, Ack{}));
    w.step();
    dec.apply(encodeWorld(enc, w, dec.ack()));
    EXPECT_FALSE(enc.lastStats().keyframe);

    dec.reset(); // tab reload
    EXPECT_EQ(dec.ack(), Ack{});
    w.step();
    dec.apply(encodeWorld(enc, w, dec.ack()));
    EXPECT_TRUE(enc.lastStats().keyframe);
    EXPECT_STREQ(enc.lastStats().reason, "resync");
    EXPECT_EQ(dec.edges(), w.edges);
}

TEST(SceneFrame, PeriodicKeyframeAtInterval) {
    TestWorld w;
    DeltaEncoder enc(DeltaEncoderOptions{3, 0.10});
    FrameDecoder dec;
    dec.apply(encodeWorld(enc, w, Ack{})); // keyframe, seq 0
    const char* expected[] = {"delta", "delta", "periodic", "delta"};
    for (const char* want : expected) {
        w.step();
        dec.apply(encodeWorld(enc, w, dec.ack()));
        EXPECT_STREQ(enc.lastStats().reason, want);
    }
    EXPECT_EQ(dec.ack(), (Ack{2, 1}));
}

TEST(SceneFrame, GridOverflowForcesKeyframe) {
    TestWorld w;
    DeltaEncoder enc;
    FrameDecoder dec;
    dec.apply(encodeWorld(enc, w, Ack{}));
    w.posA[0] = {500.0, 0.0, 0.0}; // way outside the padded box
    dec.apply(encodeWorld(enc, w, dec.ack()));
    EXPECT_TRUE(enc.lastStats().keyframe);
    EXPECT_STREQ(enc.lastStats().reason, "grid");
    // The new grid covers the runaway node within its (larger) error bound.
    const auto err = dec.views()[0].grid.maxError();
    EXPECT_LE(std::abs(dec.views()[0].positions()[0].x - 500.0), err.x * (1.0 + 1e-9));
}

TEST(SceneFrame, ViewShapeChangeForcesKeyframe) {
    TestWorld w;
    DeltaEncoder enc;
    FrameDecoder dec;
    dec.apply(encodeWorld(enc, w, Ack{}));
    auto a = w.sceneA();
    auto b = w.sceneB();
    b.title = "maxent (delta mode)";
    dec.apply(enc.encode({&a, &b}, w.scores, dec.ack(), nullptr));
    EXPECT_TRUE(enc.lastStats().keyframe);
    EXPECT_STREQ(enc.lastStats().reason, "shape");
}

// ------------------------------------------------------- edge diff hints

TEST(SceneFrame, HintPathMatchesFullListPathByteForByte) {
    TestWorld w;
    DeltaEncoder full, hinted;
    const Bytes k1 = encodeWorld(full, w, Ack{});
    const Bytes k2 = encodeWorld(hinted, w, Ack{});
    EXPECT_EQ(k1, k2);

    // Compute the exact diff of one step, then feed it as a hint to one
    // encoder (scenes without edge lists) and let the other diff full
    // lists itself. The emitted frames must be identical.
    const std::vector<Edge> before = w.edges;
    w.step();
    std::vector<Edge> added, removed;
    std::set_difference(w.edges.begin(), w.edges.end(), before.begin(), before.end(),
                        std::back_inserter(added));
    std::set_difference(before.begin(), before.end(), w.edges.begin(), w.edges.end(),
                        std::back_inserter(removed));

    const Bytes viaFull = encodeWorld(full, w, Ack{1, 0});
    const EdgeDiffHint hint{&added, &removed};
    const auto a = w.sceneA(false); // no edge copies on the hint path
    const auto b = w.sceneB(false);
    const Bytes viaHint = hinted.encode({&a, &b}, w.scores, Ack{1, 0}, &hint);
    EXPECT_FALSE(full.lastStats().keyframe);
    EXPECT_EQ(viaFull, viaHint);
}

TEST(SceneFrame, EmptyHintMeansEdgesUnchanged) {
    TestWorld w;
    DeltaEncoder enc;
    FrameDecoder dec;
    dec.apply(encodeWorld(enc, w, Ack{}));
    const EdgeDiffHint noChange{};
    const auto a = w.sceneA(false);
    const auto b = w.sceneB(false);
    const PatchStats stats = dec.apply(enc.encode({&a, &b}, w.scores, dec.ack(), &noChange));
    EXPECT_EQ(stats.edgesAdded, 0u);
    EXPECT_EQ(stats.edgesRemoved, 0u);
    EXPECT_EQ(dec.edges(), w.edges);
}

TEST(SceneFrame, HintBeforeFirstFrameIsALogicError) {
    TestWorld w;
    DeltaEncoder enc;
    const EdgeDiffHint hint{};
    const auto a = w.sceneA();
    const auto b = w.sceneB();
    EXPECT_THROW(enc.encode({&a, &b}, w.scores, Ack{}, &hint), std::logic_error);
}

// ------------------------------------------------------ hostile inputs

TEST(SceneFrame, DecoderRejectsBadHeaders) {
    TestWorld w;
    DeltaEncoder enc;
    const Bytes frame = encodeWorld(enc, w, Ack{});

    Bytes badMagic = frame;
    badMagic[0] ^= 0xff;
    FrameDecoder dec;
    EXPECT_THROW(dec.apply(badMagic), WireError);

    Bytes badVersion = frame;
    badVersion[4] = 99;
    EXPECT_THROW(dec.apply(badVersion), WireError);

    Bytes badFlags = frame;
    badFlags[5] |= 0x02; // unknown flag bit
    EXPECT_THROW(dec.apply(badFlags), WireError);
}

TEST(SceneFrame, StaleDeltaRejectedAndStateDropped) {
    TestWorld w;
    DeltaEncoder enc;
    FrameDecoder dec;
    dec.apply(encodeWorld(enc, w, Ack{}));
    w.step();
    const Bytes delta = encodeWorld(enc, w, dec.ack());
    dec.apply(delta);
    // Replaying the same delta mismatches (seq already applied): the
    // decoder must reject it AND drop state so the next ack forces resync.
    EXPECT_THROW(dec.apply(delta), WireError);
    EXPECT_FALSE(dec.hasState());
    EXPECT_EQ(dec.ack(), Ack{});
    w.step();
    dec.apply(encodeWorld(enc, w, dec.ack()));
    EXPECT_STREQ(enc.lastStats().reason, "resync");
}

TEST(SceneFrame, DeltaWithoutStateRejected) {
    TestWorld w;
    DeltaEncoder enc;
    FrameDecoder primed;
    primed.apply(encodeWorld(enc, w, Ack{}));
    w.step();
    const Bytes delta = encodeWorld(enc, w, primed.ack());
    FrameDecoder fresh;
    EXPECT_THROW(fresh.apply(delta), WireError);
}

/// Every strict prefix of a valid frame must be rejected (the parse is
/// sequential, so a shortened buffer always runs dry mid-read).
TEST(SceneFrame, TruncatedFramesRejected) {
    TestWorld w;
    DeltaEncoder enc;
    const Bytes keyframe = encodeWorld(enc, w, Ack{});
    w.step();
    const Bytes delta = encodeWorld(enc, w, Ack{1, 0});

    for (std::size_t len = 0; len < keyframe.size(); ++len) {
        FrameDecoder dec;
        EXPECT_THROW(dec.apply(Bytes(keyframe.begin(), keyframe.begin() + len)),
                     WireError)
            << "keyframe prefix " << len;
        EXPECT_FALSE(dec.hasState());
    }
    for (std::size_t len = 0; len < delta.size(); ++len) {
        FrameDecoder dec;
        dec.apply(keyframe);
        EXPECT_THROW(dec.apply(Bytes(delta.begin(), delta.begin() + len)), WireError)
            << "delta prefix " << len;
        EXPECT_FALSE(dec.hasState());
    }
}

/// Byte-flip fuzz: every single-byte corruption of a valid frame either
/// decodes (the flip landed in a value field) or throws WireError — never
/// anything else, never UB (the ASan/UBSan run of this test is the real
/// assertion). After a rejected frame the stream must recover via resync.
TEST(SceneFrame, ByteFlipCorruptionIsRejectedOrHarmless) {
    TestWorld w;
    DeltaEncoder enc;
    const Bytes keyframe = encodeWorld(enc, w, Ack{});
    w.step();
    const Bytes delta = encodeWorld(enc, w, Ack{1, 0});

    std::mt19937 rng(99);
    std::uniform_int_distribution<int> mask(1, 255);
    count rejected = 0, survived = 0;
    for (std::size_t pos = 0; pos < delta.size(); ++pos) {
        Bytes corrupt = delta;
        corrupt[pos] ^= static_cast<std::uint8_t>(mask(rng));
        FrameDecoder dec;
        dec.apply(keyframe);
        try {
            dec.apply(corrupt);
            ++survived;
            EXPECT_TRUE(dec.hasState());
        } catch (const WireError&) {
            ++rejected;
            EXPECT_FALSE(dec.hasState());
            EXPECT_EQ(dec.ack(), Ack{});
        }
    }
    // The format is dense, so most flips must be caught by validation;
    // both outcomes should occur (value-field flips survive by design).
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(survived, 0u);

    for (std::size_t pos = 0; pos < keyframe.size(); ++pos) {
        Bytes corrupt = keyframe;
        corrupt[pos] ^= static_cast<std::uint8_t>(mask(rng));
        FrameDecoder dec;
        try {
            dec.apply(corrupt);
        } catch (const WireError&) {
            EXPECT_FALSE(dec.hasState());
        }
    }
}

/// The count fields of a delta frame, inflated adversarially, must not
/// drive huge allocations or out-of-bounds writes.
TEST(SceneFrame, HostileCountsRejected) {
    ByteWriter head;
    head.u32(kFrameMagic);
    head.u8(kFrameVersion);
    head.u8(1); // keyframe
    head.u32(1); // epoch
    head.u32(0); // seq
    head.varint(~0ull >> 1); // absurd node count
    head.varint(2);
    FrameDecoder dec;
    EXPECT_THROW(dec.apply(head.take()), WireError);

    ByteWriter views;
    views.u32(kFrameMagic);
    views.u8(kFrameVersion);
    views.u8(1);
    views.u32(1);
    views.u32(0);
    views.varint(1);
    views.varint(65); // view count above the cap
    EXPECT_THROW(dec.apply(views.take()), WireError);
}

/// Hand-built version 2 frames over 13 nodes (the last bitmap byte has
/// bits past n) and 2 views: an honest keyframe, then hostile deltas.
struct HandFrames {
    static constexpr count kNodes = 13;

    static ByteWriter header(bool keyframe, std::uint32_t seq) {
        ByteWriter w;
        w.u32(kFrameMagic);
        w.u8(kFrameVersion);
        w.u8(keyframe ? kFlagKeyframe : 0);
        w.u32(1);
        w.u32(seq);
        w.varint(kNodes);
        w.varint(2);
        return w;
    }

    /// @p view0Mode is view 0's colour mode byte; view 1 back-references.
    static Bytes keyframe(std::uint8_t view0Mode = kColorsInline) {
        ByteWriter w = header(true, 0);
        w.varint(0); // edges
        for (count i = 0; i < kNodes; ++i) w.f32(1.0f);
        for (int v = 0; v < 2; ++v) {
            w.string("v");
            for (int k = 0; k < 3; ++k) w.f64(0.0);
            for (int k = 0; k < 3; ++k) w.f64(1.0);
            w.f64(6.0);
            for (count i = 0; i < 3 * kNodes; ++i) w.u16(7);
            if (v == 1) {
                w.u8(kColorsAsView0);
                continue;
            }
            w.u8(view0Mode);
            w.varint(2); // palette
            for (int k = 0; k < 6; ++k) w.u8(static_cast<std::uint8_t>(k));
            for (count i = 0; i < kNodes; ++i) w.varint(i % 2);
        }
        return w.take();
    }

    /// Delta whose score set is the raw bytes @p scoreSet followed by
    /// @p scoreValues f32s; positions unchanged; colours per @p view0Mode.
    static Bytes delta(const Bytes& scoreSet, count scoreValues,
                       std::uint8_t view0Mode = kColorsInline) {
        ByteWriter w = header(false, 1);
        w.varint(0); // removed edges
        w.varint(0); // added edges
        for (const auto b : scoreSet) w.u8(b);
        for (count k = 0; k < scoreValues; ++k) w.f32(2.0f);
        for (int v = 0; v < 2; ++v) {
            w.varint(0); // no position changes
            if (v == 1) {
                w.u8(kColorsAsView0);
                continue;
            }
            w.u8(view0Mode);
            w.varint(0); // no palette growth
            w.varint(1 << 1); // one colour change, gap-coded
            w.varint(4);
            w.varint(1);
        }
        return w.take();
    }
};

TEST(SceneFrame, HandBuiltVersion2FramesDecode) {
    FrameDecoder dec;
    dec.apply(HandFrames::keyframe());
    EXPECT_EQ(dec.views()[1].colorIndex, dec.views()[0].colorIndex);
    EXPECT_EQ(dec.views()[1].palette, dec.views()[0].palette);
    // Bits 0 and 12 as a bitmap, then two scores.
    const PatchStats stats = dec.apply(HandFrames::delta({(2 << 1) | 1, 0x01, 0x10}, 2));
    EXPECT_EQ(dec.scores()[0], 2.0f);
    EXPECT_EQ(dec.scores()[12], 2.0f);
    EXPECT_EQ(dec.scores()[1], 1.0f);
    EXPECT_EQ(dec.views()[1].colorIndex[4], 1u);
    EXPECT_EQ(stats.markersTouched, 2 * 3u); // nodes 0, 4 and 12 in both views
}

TEST(SceneFrame, HostileVersion2InputsRejectedAndStateDropped) {
    const Bytes hostile[] = {
        HandFrames::delta({(1 << 1) | 1, 0x00, 0x20}, 1),   // bit 13 >= n
        HandFrames::delta({(2 << 1) | 1, 0x01, 0x00}, 2),   // popcount 1, count 2
        HandFrames::delta({0}, 0, kColorsAsView0),           // back-reference on view 0
        HandFrames::delta({0}, 0, 7),                        // unknown colour mode
    };
    for (std::size_t k = 0; k < std::size(hostile); ++k) {
        FrameDecoder dec;
        dec.apply(HandFrames::keyframe());
        EXPECT_THROW(dec.apply(hostile[k]), WireError) << "case " << k;
        EXPECT_FALSE(dec.hasState()) << "case " << k;
        EXPECT_EQ(dec.ack(), Ack{});
    }
    // A frame that ends inside the score bitmap (2 bytes for 13 nodes).
    ByteWriter cut = HandFrames::header(false, 1);
    cut.varint(0);
    cut.varint(0);
    cut.varint((1 << 1) | 1);
    cut.u8(0x01);
    FrameDecoder dec;
    dec.apply(HandFrames::keyframe());
    EXPECT_THROW(dec.apply(cut.take()), WireError);
    EXPECT_FALSE(dec.hasState());

    EXPECT_THROW(dec.apply(HandFrames::keyframe(kColorsAsView0)), WireError);
    EXPECT_FALSE(dec.hasState());

    // Version 1 frames are no longer understood.
    Bytes v1 = HandFrames::keyframe();
    v1[4] = 1;
    try {
        dec.apply(v1);
        ADD_FAILURE() << "version 1 frame accepted";
    } catch (const WireError& e) {
        EXPECT_STREQ(e.what(), "unsupported version");
    }
}

// ------------------------------------------------- LOD progressive scenes

/// Fixed synthetic coarsening of the TestWorld graph: clusters of 4
/// consecutive fine nodes, coarse edges = fine edges mapped into cluster
/// space (self-loops dropped, deduplicated, sorted). Shape-compatible with
/// what buildLodMapping produces, but independent of the matching
/// heuristics so the wire tests pin their own ground truth.
LodMapping testMapping(const TestWorld& w) {
    LodMapping lod;
    lod.fineNodes = TestWorld::kNodes;
    lod.coarseNodes = TestWorld::kNodes / 4;
    lod.levels = 2;
    for (node u = 0; u < TestWorld::kNodes; ++u) lod.fineToCoarse.push_back(u / 4);
    for (const auto& [u, v] : w.edges) {
        const node cu = lod.fineToCoarse[u], cv = lod.fineToCoarse[v];
        if (cu != cv) lod.coarseEdges.push_back({std::min(cu, cv), std::max(cu, cv)});
    }
    std::sort(lod.coarseEdges.begin(), lod.coarseEdges.end());
    lod.coarseEdges.erase(std::unique(lod.coarseEdges.begin(), lod.coarseEdges.end()),
                          lod.coarseEdges.end());
    return lod;
}

Bytes encodeWorldLod(DeltaEncoder& enc, const TestWorld& w, Ack ack, const LodMapping* lod,
                     const EdgeDiffHint* hint = nullptr) {
    const auto a = w.sceneA();
    const auto b = w.sceneB();
    return enc.encode({&a, &b}, w.scores, ack, hint, [lod] { return lod; });
}

TEST(SceneFrameLod, CoarsePlusRefineEqualsFullKeyframeState) {
    TestWorld w;
    const LodMapping lod = testMapping(w);

    // Reference: the same state shipped as a plain full keyframe.
    DeltaEncoder plainEnc;
    FrameDecoder plain;
    plain.apply(encodeWorld(plainEnc, w, Ack{}));

    DeltaEncoder enc;
    FrameDecoder dec;
    const Bytes coarse = encodeWorldLod(enc, w, Ack{}, &lod);
    EXPECT_TRUE(enc.lastStats().keyframe);
    EXPECT_TRUE(enc.lastStats().lodCoarse);
    EXPECT_EQ(enc.lastStats().lodCoarseNodes, lod.coarseNodes);
    EXPECT_EQ(enc.lastStats().lodLevels, lod.levels);
    ASSERT_TRUE(enc.hasRefineFrame());

    const PatchStats coarseStats = dec.apply(coarse);
    EXPECT_TRUE(coarseStats.keyframe);
    EXPECT_TRUE(coarseStats.lodCoarse);
    EXPECT_EQ(coarseStats.lodCoarseNodes, lod.coarseNodes);
    // First pixels are cheap: the coarse frame touches the skeleton, not
    // the full scene (the full keyframe touches every node and edge in
    // every view).
    EXPECT_LT(coarseStats.elementsTouched(), 2 * (TestWorld::kNodes + w.edges.size()));

    const PatchStats refineStats = dec.apply(enc.takeRefineFrame());
    EXPECT_FALSE(enc.hasRefineFrame());
    EXPECT_FALSE(refineStats.keyframe); // the refine half is an ordinary delta

    // Post-refine client state must equal the full-keyframe client state
    // exactly: same edges, scores, quantized positions, resolved colors.
    EXPECT_EQ(dec.edges(), plain.edges());
    EXPECT_EQ(dec.scores(), plain.scores());
    ASSERT_EQ(dec.views().size(), plain.views().size());
    for (count v = 0; v < dec.views().size(); ++v) {
        EXPECT_EQ(dec.views()[v].grid, plain.views()[v].grid) << "view " << v;
        EXPECT_EQ(dec.views()[v].qpos, plain.views()[v].qpos) << "view " << v;
        EXPECT_EQ(dec.views()[v].resolvedColors(), plain.views()[v].resolvedColors());
        EXPECT_EQ(dec.views()[v].title, plain.views()[v].title);
    }
    // The pair is one logical keyframe: (epoch, 0) then (epoch, 1).
    EXPECT_EQ(dec.ack(), (Ack{1, 1}));
}

TEST(SceneFrameLod, DeltaStreamContinuesAfterLodPair) {
    TestWorld w;
    const LodMapping lod = testMapping(w);
    DeltaEncoder enc;
    FrameDecoder dec;
    dec.apply(encodeWorldLod(enc, w, Ack{}, &lod));
    dec.apply(enc.takeRefineFrame());

    // Ordinary deltas ride on post-refine state; final state must match a
    // forced full keyframe of the same world bit for bit.
    for (int i = 0; i < 4; ++i) {
        w.step();
        const PatchStats stats = dec.apply(encodeWorldLod(enc, w, dec.ack(), &lod));
        EXPECT_FALSE(stats.keyframe) << "step " << i;
    }
    enc.forceKeyframe();
    FrameDecoder fresh;
    // No LOD provider on this encode: force the plain keyframe reference.
    fresh.apply(encodeWorld(enc, w, dec.ack()));
    EXPECT_EQ(fresh.edges(), dec.edges());
    EXPECT_EQ(fresh.scores(), dec.scores());
    for (count v = 0; v < fresh.views().size(); ++v)
        EXPECT_EQ(fresh.views()[v].qpos, dec.views()[v].qpos) << "view " << v;
}

TEST(SceneFrameLod, UncoarsenableMappingFallsBackToFullKeyframe) {
    TestWorld w;
    LodMapping lod; // coarseNodes == 0: "no LOD available"
    DeltaEncoder enc;
    FrameDecoder dec;
    dec.apply(encodeWorldLod(enc, w, Ack{}, &lod));
    EXPECT_TRUE(enc.lastStats().keyframe);
    EXPECT_FALSE(enc.lastStats().lodCoarse);
    EXPECT_FALSE(enc.hasRefineFrame());
    EXPECT_EQ(dec.edges(), w.edges);

    // A stale mapping (wrong fine node count) must also fall back.
    TestWorld w2;
    LodMapping stale = testMapping(w2);
    stale.fineNodes = TestWorld::kNodes + 1;
    DeltaEncoder enc2;
    FrameDecoder dec2;
    dec2.apply(encodeWorldLod(enc2, w2, Ack{}, &stale));
    EXPECT_FALSE(enc2.lastStats().lodCoarse);
    EXPECT_FALSE(enc2.hasRefineFrame());
}

TEST(SceneFrameLod, RefineMustBeTakenBeforeNextEncode) {
    TestWorld w;
    const LodMapping lod = testMapping(w);
    DeltaEncoder enc;
    encodeWorldLod(enc, w, Ack{}, &lod);
    ASSERT_TRUE(enc.hasRefineFrame());
    // Encoding the next frame while the refine half is still pending would
    // desynchronize the shadow state from the client.
    EXPECT_THROW(encodeWorldLod(enc, w, Ack{}, &lod), std::logic_error);
    enc.takeRefineFrame();
    EXPECT_THROW(enc.takeRefineFrame(), std::logic_error); // already taken
}

TEST(SceneFrameLod, CorruptCoarseFramesRejected) {
    TestWorld w;
    const LodMapping lod = testMapping(w);
    DeltaEncoder enc;
    const Bytes coarse = encodeWorldLod(enc, w, Ack{}, &lod);
    enc.takeRefineFrame();

    // Every truncated prefix must throw and leave no committed state.
    for (std::size_t len = 0; len < coarse.size(); ++len) {
        FrameDecoder dec;
        EXPECT_THROW(dec.apply(Bytes(coarse.begin(), coarse.begin() + len)), WireError)
            << "coarse prefix " << len;
        EXPECT_FALSE(dec.hasState());
    }

    // A prolongation-map entry pointing past the coarse node count must be
    // rejected. Header: magic(4) version(1) flags(1) epoch(4) seq(4), then
    // varint node count, varint view count, varint coarse count, then the
    // map (all counts here are < 128: one varint byte each).
    Bytes evil = coarse;
    ByteReader r(evil);
    r.u32();
    r.u8();
    r.u8();
    r.u32();
    r.u32();
    r.varint(); // node count
    r.varint(); // view count
    const std::size_t ncAt = coarse.size() - r.remaining();
    ASSERT_EQ(evil[ncAt], static_cast<std::uint8_t>(lod.coarseNodes));
    evil[ncAt + 1] = static_cast<std::uint8_t>(lod.coarseNodes); // f2c[0] == nc
    FrameDecoder dec;
    EXPECT_THROW(dec.apply(evil), WireError);

    // LOD flag without the keyframe flag is malformed by construction.
    Bytes badFlags = coarse;
    badFlags[5] = kFlagLodCoarse;
    FrameDecoder dec2;
    EXPECT_THROW(dec2.apply(badFlags), WireError);
}

TEST(SceneFrameLod, BuiltMappingRoundTripsOnRealCoarsening) {
    // End-to-end with the real coarsening stack: a mapping built by
    // buildLodMapping on a graph shaped like the scene's edge set must
    // encode/decode exactly like the synthetic one.
    TestWorld w;
    Graph g(TestWorld::kNodes, true);
    for (const auto& [u, v] : w.edges) g.addEdge(u, v, 1.0);
    const LodMapping lod = buildLodMapping(g, TestWorld::kNodes / 4);
    ASSERT_GT(lod.coarseNodes, 0u);
    ASSERT_LT(lod.coarseNodes, lod.fineNodes);

    DeltaEncoder plainEnc;
    FrameDecoder plain;
    plain.apply(encodeWorld(plainEnc, w, Ack{}));

    DeltaEncoder enc;
    FrameDecoder dec;
    dec.apply(encodeWorldLod(enc, w, Ack{}, &lod));
    dec.apply(enc.takeRefineFrame());
    EXPECT_EQ(dec.edges(), plain.edges());
    EXPECT_EQ(dec.scores(), plain.scores());
    for (count v = 0; v < dec.views().size(); ++v)
        EXPECT_EQ(dec.views()[v].qpos, plain.views()[v].qpos) << "view " << v;
}

} // namespace
} // namespace rinkit::wire
