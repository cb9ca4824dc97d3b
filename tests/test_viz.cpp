// Tests for the viz backend: palettes, scene construction, plotly JSON
// structure, the measure registry, the client cost model, and the full
// RinWidget update cycle.
#include <gtest/gtest.h>

#include <fstream>

#include "src/core/rin_explorer.hpp"
#include "src/graph/generators.hpp"
#include "src/layout/maxent_stress.hpp"
#include "src/md/synthetic.hpp"
#include "src/support/json.hpp"
#include "src/viz/client_model.hpp"
#include "src/viz/colormap.hpp"
#include "src/viz/figure.hpp"
#include "src/viz/measures.hpp"
#include "src/viz/widget.hpp"

namespace rinkit::viz {
namespace {

TEST(Color, HexFormat) {
    EXPECT_EQ((Color{255, 0, 128}).hex(), "#ff0080");
    EXPECT_EQ((Color{0, 0, 0}).hex(), "#000000");
}

class PaletteP : public ::testing::TestWithParam<Palette> {};

TEST_P(PaletteP, EndpointsAndClamping) {
    const auto lo = sample(GetParam(), 0.0);
    const auto hi = sample(GetParam(), 1.0);
    EXPECT_NE(lo, hi);
    EXPECT_EQ(sample(GetParam(), -3.0), lo); // clamped
    EXPECT_EQ(sample(GetParam(), 4.0), hi);
}

TEST_P(PaletteP, ContinuousInBetween) {
    // Adjacent samples differ by small steps (no banding discontinuities).
    for (double t = 0.0; t < 1.0; t += 0.01) {
        const auto a = sample(GetParam(), t);
        const auto b = sample(GetParam(), t + 0.01);
        EXPECT_LT(std::abs(a.r - b.r) + std::abs(a.g - b.g) + std::abs(a.b - b.b), 40);
    }
}

INSTANTIATE_TEST_SUITE_P(AllPalettes, PaletteP,
                         ::testing::Values(Palette::Spectral, Palette::Viridis,
                                           Palette::Plasma, Palette::Coolwarm));

TEST(ColorMap, SpectralRunsBlueToRed) {
    // Paper Fig. 5: spectral palette, blue (low) to red (high).
    const auto lo = sample(Palette::Spectral, 0.0);
    const auto hi = sample(Palette::Spectral, 1.0);
    EXPECT_GT(lo.b, lo.r);
    EXPECT_GT(hi.r, hi.b);
}

TEST(ColorMap, MapScoresNormalizes) {
    const auto colors = mapScores({0.0, 5.0, 10.0}, Palette::Spectral);
    ASSERT_EQ(colors.size(), 3u);
    EXPECT_EQ(colors[0], sample(Palette::Spectral, 0.0));
    EXPECT_EQ(colors[1], sample(Palette::Spectral, 0.5));
    EXPECT_EQ(colors[2], sample(Palette::Spectral, 1.0));
}

TEST(ColorMap, ConstantScoresMidpointAndNanGrey) {
    const auto constant = mapScores({2.0, 2.0}, Palette::Viridis);
    EXPECT_EQ(constant[0], sample(Palette::Viridis, 0.5));
    const auto withNan = mapScores({0.0, std::nan(""), 1.0}, Palette::Viridis);
    EXPECT_EQ(withNan[1], (Color{128, 128, 128}));
}

TEST(ColorMap, CategoricalCycles) {
    EXPECT_EQ(categorical(0), categorical(categoricalCycle()));
    for (index a = 0; a < categoricalCycle(); ++a) {
        for (index b = a + 1; b < categoricalCycle(); ++b) {
            EXPECT_NE(categorical(a), categorical(b));
        }
    }
}

TEST(Scene, MakeSceneBasics) {
    const auto g = generators::karateClub();
    std::vector<Point3> coords(34, Point3{1, 2, 3});
    std::vector<double> scores(34, 0.5);
    scores[0] = 1.0;
    const auto s = makeScene(g, coords, scores, Palette::Spectral, "test");
    EXPECT_EQ(s.nodeCount(), 34u);
    EXPECT_EQ(s.edgeCount(), 78u);
    EXPECT_EQ(s.nodeLabels.size(), 34u);
    EXPECT_NE(s.nodeLabels[0].find("node 0"), std::string::npos);
    EXPECT_THROW(makeScene(g, std::vector<Point3>(3), scores, Palette::Spectral, "x"),
                 std::invalid_argument);
}

TEST(Scene, CommunitySceneUsesCategoricalColors) {
    const auto g = generators::karateClub();
    std::vector<Point3> coords(34);
    std::vector<index> comm(34, 0);
    for (node u = 17; u < 34; ++u) comm[u] = 1;
    const auto s = makeCommunityScene(g, coords, comm, "communities");
    EXPECT_EQ(s.nodeColors[0], categorical(0));
    EXPECT_EQ(s.nodeColors[20], categorical(1));
}

TEST(Figure, EmitsValidPlotlyJson) {
    const auto g = generators::karateClub();
    MaxentStress layout(g);
    layout.run();
    std::vector<double> scores(34, 1.0);
    Figure fig;
    fig.addScene(makeScene(g, layout.getCoordinates(), scores, Palette::Spectral, "k"));
    const auto json = fig.toJson();

    const auto doc = JsonValue::parse(json);
    ASSERT_TRUE(doc.has("data"));
    ASSERT_TRUE(doc.has("layout"));
    const auto& data = doc.at("data");
    ASSERT_EQ(data.size(), 2u); // edge trace + node trace
    const auto& edgeTrace = data.at(0);
    EXPECT_EQ(edgeTrace.at("type").asString(), "scatter3d");
    EXPECT_EQ(edgeTrace.at("mode").asString(), "lines");
    // 3 entries (two endpoints + null) per edge.
    EXPECT_EQ(edgeTrace.at("x").size(), 78u * 3u);
    const auto& nodeTrace = data.at(1);
    EXPECT_EQ(nodeTrace.at("mode").asString(), "markers");
    EXPECT_EQ(nodeTrace.at("x").size(), 34u);
    EXPECT_EQ(nodeTrace.at("marker").at("color").size(), 34u);
    EXPECT_EQ(nodeTrace.at("text").size(), 34u);
}

TEST(Figure, DualSceneDomainsSplit) {
    const auto g = generators::karateClub();
    std::vector<Point3> coords(34);
    std::vector<double> scores(34, 0.0);
    Figure fig;
    fig.addScene(makeScene(g, coords, scores, Palette::Spectral, "left"));
    fig.addScene(makeScene(g, coords, scores, Palette::Spectral, "right"));
    const auto doc = JsonValue::parse(fig.toJson());
    EXPECT_EQ(doc.at("data").size(), 4u);
    ASSERT_TRUE(doc.at("layout").has("scene"));
    ASSERT_TRUE(doc.at("layout").has("scene2"));
    const auto& dom1 = doc.at("layout").at("scene").at("domain").at("x");
    const auto& dom2 = doc.at("layout").at("scene2").at("domain").at("x");
    EXPECT_DOUBLE_EQ(dom1.at(1).asNumber(), 0.5);
    EXPECT_DOUBLE_EQ(dom2.at(0).asNumber(), 0.5);
    // Second scene's traces reference scene2.
    EXPECT_EQ(doc.at("data").at(2).at("scene").asString(), "scene2");
}

TEST(Measures, RegistryComplete) {
    EXPECT_EQ(allMeasures().size(), 13u);
    for (Measure m : allMeasures()) {
        EXPECT_FALSE(measureName(m).empty());
    }
    EXPECT_TRUE(isCommunityMeasure(Measure::PlmCommunities));
    EXPECT_FALSE(isCommunityMeasure(Measure::Betweenness));
}

TEST(Measures, AllComputeOnKarate) {
    const auto g = generators::karateClub();
    const auto v = CsrView::fromGraph(g);
    for (Measure m : allMeasures()) {
        const auto scores = computeMeasure(g, v, m);
        ASSERT_EQ(scores.size(), 34u) << measureName(m);
        for (double s : scores) EXPECT_TRUE(std::isfinite(s)) << measureName(m);
        if (isCommunityMeasure(m)) {
            // Community ids are small non-negative integers.
            for (double s : scores) {
                EXPECT_GE(s, 0.0);
                EXPECT_EQ(s, std::floor(s));
                EXPECT_LT(s, 34.0);
            }
        }
    }
}

TEST(ClientModel, ParseCostScalesWithPayload) {
    ClientCostModel client;
    std::string small = R"({"a":[1,2,3]})";
    EXPECT_GE(client.parseOnly(small), 0.0);
    EXPECT_THROW(client.parseOnly("{broken"), std::runtime_error);
}

TEST(ClientModel, FullUpdateCostsMoreThanPartial) {
    const auto g = generators::karateClub();
    MaxentStress layout(g);
    layout.run();
    Figure fig;
    fig.addScene(makeScene(g, layout.getCoordinates(), std::vector<double>(34, 1.0),
                           Palette::Spectral, "k"));
    const auto json = fig.toJson();
    ClientCostModel::Parameters full;
    full.fullUpdate = true;
    ClientCostModel::Parameters partial;
    partial.fullUpdate = false;
    // Average over repetitions to de-noise timing.
    double fullMs = 0.0, partialMs = 0.0;
    for (int i = 0; i < 5; ++i) {
        fullMs += ClientCostModel(full).processUpdate(json, 3400, 7800);
        partialMs += ClientCostModel(partial).processUpdate(json, 3400, 7800);
    }
    EXPECT_GT(fullMs, partialMs); // full touches nodes + edges, partial edges only
}

TEST(Widget, InitialStateConsistent) {
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = 5;
    const auto traj = md::TrajectoryGenerator(gen).generate(md::alpha3D());
    RinWidget widget(traj);
    EXPECT_EQ(widget.frame(), 0u);
    EXPECT_DOUBLE_EQ(widget.cutoff(), 4.5);
    EXPECT_EQ(widget.graph().numberOfNodes(), 73u);
    EXPECT_EQ(widget.scores().size(), 73u); // initial measure ran
    EXPECT_EQ(widget.maxentLayout().size(), 73u);
    EXPECT_FALSE(widget.figureJson().empty());
    // Figure is valid JSON with 4 traces (2 scenes x 2 traces).
    const auto doc = JsonValue::parse(widget.figureJson());
    EXPECT_EQ(doc.at("data").size(), 4u);
}

TEST(Widget, CutoffEventTimingsAndState) {
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = 3;
    const auto traj = md::TrajectoryGenerator(gen).generate(md::alpha3D());
    RinWidget widget(traj);
    const count before = widget.graph().numberOfEdges();
    const auto t = widget.setCutoff(7.5);
    EXPECT_GT(widget.graph().numberOfEdges(), before);
    EXPECT_GT(t.edgeStats.edgesAdded, 0u);
    EXPECT_GT(t.networkUpdateMs, 0.0);
    EXPECT_GT(t.layoutMs, 0.0);
    EXPECT_GT(t.clientMs, 0.0);
    EXPECT_GE(t.totalMs(), t.serverMs());
    EXPECT_DOUBLE_EQ(widget.cutoff(), 7.5);
}

TEST(Widget, FrameEventUpdatesProteinView) {
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = 10;
    gen.unfoldingEvents = 1;
    const auto traj = md::TrajectoryGenerator(gen).generate(md::villinHeadpiece());
    RinWidget widget(traj);
    const auto t = widget.setFrame(5);
    EXPECT_EQ(widget.frame(), 5u);
    EXPECT_GT(t.edgeStats.edgesRemoved + t.edgeStats.edgesAdded, 0u);
    EXPECT_GT(t.measureMs, 0.0); // auto-recompute on
}

TEST(Widget, OnDemandModeSkipsMeasure) {
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = 4;
    const auto traj = md::TrajectoryGenerator(gen).generate(md::chignolin());
    RinWidget widget(traj);
    widget.setAutoRecompute(false);
    const auto t = widget.setFrame(2);
    EXPECT_DOUBLE_EQ(t.measureMs, 0.0);
    widget.setAutoRecompute(true);
    const auto t2 = widget.setFrame(3);
    EXPECT_GT(t2.measureMs, 0.0);
}

TEST(Widget, MeasureSwitchLeavesNetworkAlone) {
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = 3;
    const auto traj = md::TrajectoryGenerator(gen).generate(md::alpha3D());
    RinWidget widget(traj);
    const count edges = widget.graph().numberOfEdges();
    const auto coords = widget.maxentLayout();
    const auto t = widget.setMeasure(Measure::Betweenness);
    EXPECT_EQ(widget.graph().numberOfEdges(), edges);
    EXPECT_EQ(widget.maxentLayout(), coords); // layout untouched
    EXPECT_DOUBLE_EQ(t.networkUpdateMs, 0.0);
    EXPECT_DOUBLE_EQ(t.layoutMs, 0.0);
    EXPECT_GT(t.measureMs, 0.0);
    EXPECT_TRUE(widget.measure() == Measure::Betweenness);
}

TEST(Widget, MeasureSwitchReusesSerializedEdgeTraces) {
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = 3;
    const auto traj = md::TrajectoryGenerator(gen).generate(md::alpha3D());
    RinWidget widget(traj);

    // A cutoff switch changes the edge set: edge traces serialize fresh.
    const auto tCutoff = widget.setCutoff(6.0);
    EXPECT_GT(tCutoff.edgeBytesSerialized, 0u);
    EXPECT_GT(tCutoff.serializedBytes, tCutoff.edgeBytesSerialized);

    // A measure switch leaves positions and edges alone: zero edge-trace
    // bytes serialized — the cached fragments are spliced in verbatim.
    const auto tMeasure = widget.setMeasure(Measure::Degree);
    EXPECT_EQ(tMeasure.edgeBytesSerialized, 0u);
    EXPECT_GT(tMeasure.serializedBytes, 0u);

    // The shipped figure still contains both full edge traces: same trace
    // count, and the edge trace arrays have 3 entries per edge.
    const auto doc = JsonValue::parse(widget.figureJson());
    ASSERT_EQ(doc.at("data").size(), 4u);
    const count edges = widget.graph().numberOfEdges();
    EXPECT_EQ(doc.at("data").at(0).at("x").size(), 3 * edges);
    EXPECT_EQ(doc.at("data").at(2).at("x").size(), 3 * edges);

    // Delta-mode toggles (also markers-only renders) keep the cache warm...
    widget.setMeasure(Measure::Closeness);
    const auto tAgain = widget.setMeasure(Measure::Betweenness);
    EXPECT_EQ(tAgain.edgeBytesSerialized, 0u);

    // ...while the next frame event invalidates it.
    const auto tFrame = widget.setFrame(1);
    EXPECT_GT(tFrame.edgeBytesSerialized, 0u);
}

TEST(Widget, MeasureCacheHitsOnUnchangedGraphOnly) {
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = 4;
    gen.unfoldingEvents = 1;
    const auto traj = md::TrajectoryGenerator(gen).generate(md::villinHeadpiece());
    RinWidget widget(traj); // refresh() computes the initial Closeness

    // First switch to a new measure: cold, computed.
    const auto tCold = widget.setMeasure(Measure::Betweenness);
    EXPECT_FALSE(tCold.measureCacheHit);
    const auto betweennessScores = widget.scores();

    // Repeating the switch on the unchanged graph is a version-keyed hit.
    const auto tHit = widget.setMeasure(Measure::Betweenness);
    EXPECT_TRUE(tHit.measureCacheHit);
    EXPECT_EQ(widget.scores(), betweennessScores);

    // Flipping back to the initial measure also hits: its entry is still
    // valid for the current graph version.
    const auto tBack = widget.setMeasure(Measure::Closeness);
    EXPECT_TRUE(tBack.measureCacheHit);

    // A cutoff switch mutates the graph (version bump) -> miss.
    const auto tCutoff = widget.setCutoff(6.5);
    EXPECT_FALSE(tCutoff.measureCacheHit);
    // ...and the other measure's stale entry misses too.
    const auto tStale = widget.setMeasure(Measure::Betweenness);
    EXPECT_FALSE(tStale.measureCacheHit);
    EXPECT_NE(widget.scores(), betweennessScores); // different edge set

    // A frame switch with real edge churn invalidates as well.
    const auto tFrame = widget.setFrame(3);
    ASSERT_GT(tFrame.edgeStats.edgesAdded + tFrame.edgeStats.edgesRemoved, 0u);
    EXPECT_FALSE(tFrame.measureCacheHit);
}

TEST(Widget, DeltaModeShowsScoreDifferences) {
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = 6;
    gen.unfoldingEvents = 1;
    const auto traj = md::TrajectoryGenerator(gen).generate(md::villinHeadpiece());
    RinWidget widget(traj);
    widget.setMeasure(Measure::Degree);
    widget.snapshotBuffer();
    widget.setFrame(3); // unfolding sheds contacts -> degree drops
    widget.setDeltaMode(true);
    const auto delta = widget.displayedScores();
    ASSERT_EQ(delta.size(), 35u);
    double sum = 0.0;
    for (double d : delta) sum += d;
    EXPECT_LT(sum, 0.0); // on average fewer contacts than buffered frame
    widget.setDeltaMode(false);
    EXPECT_EQ(widget.displayedScores(), widget.scores());
}

TEST(Widget, CommunityMeasureRendersCategorical) {
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = 3;
    const auto traj = md::TrajectoryGenerator(gen).generate(md::alpha3D());
    RinWidget widget(traj);
    widget.setMeasure(Measure::PlmCommunities);
    const auto doc = JsonValue::parse(widget.figureJson());
    // Node trace colors are categorical hexes.
    const auto& colors = doc.at("data").at(1).at("marker").at("color");
    EXPECT_EQ(colors.size(), 73u);
    EXPECT_EQ(colors.at(0).asString()[0], '#');
}

TEST(Widget, BinaryWireShipsDecodableFrames) {
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = 4;
    const auto traj = md::TrajectoryGenerator(gen).generate(md::alpha3D());
    RinWidget::Options opts;
    opts.wireFormat = WireFormat::Binary;
    RinWidget widget(traj, opts);

    // The initial draw ships a keyframe; no JSON is maintained.
    EXPECT_TRUE(widget.wireStats().keyframe);
    EXPECT_FALSE(widget.wireFrame().empty());
    EXPECT_TRUE(widget.figureJson().empty());

    // The simulated client's decoder tracks the server exactly: shared
    // edge set, both views, scores at f32 precision.
    EXPECT_EQ(widget.wireClient().edges(), widget.graph().edges());
    ASSERT_EQ(widget.wireClient().views().size(), 2u);
    ASSERT_EQ(widget.wireClient().scores().size(), widget.scores().size());
    const auto shown = widget.displayedScores();
    for (count i = 0; i < shown.size(); ++i)
        EXPECT_EQ(widget.wireClient().scores()[i], static_cast<float>(shown[i]));

    // A cutoff switch ships as a frame whose byte count lands in the
    // timing; the JSON fields stay empty in binary mode.
    const auto t = widget.setCutoff(6.0);
    EXPECT_TRUE(t.binaryWire);
    EXPECT_EQ(t.wireBytes, widget.wireFrame().size());
    EXPECT_EQ(t.serializedBytes, 0u);
    EXPECT_GT(t.wirePatchElements, 0u);
    EXPECT_GT(t.clientMs, 0.0);
    EXPECT_EQ(widget.wireClient().edges(), widget.graph().edges());

    // Maxent-view positions decode within the grid's quantization error.
    const auto& view = widget.wireClient().views()[1];
    const auto decoded = view.positions();
    const auto err = view.grid.maxError();
    const auto& truth = widget.maxentLayout();
    ASSERT_EQ(decoded.size(), truth.size());
    for (count i = 0; i < truth.size(); ++i) {
        EXPECT_LE(std::abs(decoded[i].x - truth[i].x), err.x * (1.0 + 1e-9));
        EXPECT_LE(std::abs(decoded[i].y - truth[i].y), err.y * (1.0 + 1e-9));
        EXPECT_LE(std::abs(decoded[i].z - truth[i].z), err.z * (1.0 + 1e-9));
    }
}

TEST(Widget, BinaryDeltasBeatJsonByteCounts) {
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = 6;
    const auto traj = md::TrajectoryGenerator(gen).generate(md::alpha3D());
    RinWidget json(traj); // default: WireFormat::Json
    RinWidget::Options opts;
    opts.wireFormat = WireFormat::Binary;
    RinWidget binary(traj, opts);

    for (index f : {1u, 2u, 3u}) {
        const auto tj = json.setFrame(f);
        const auto tb = binary.setFrame(f);
        EXPECT_FALSE(tj.binaryWire);
        EXPECT_EQ(tj.wireBytes, json.figureJson().size());
        // A frame switch is the client-heavy worst case; the delta frame
        // must undercut the full-figure JSON by a wide margin.
        EXPECT_LT(tb.wireBytes * 5, tj.wireBytes) << "frame " << f;
    }
}

/// Byte budget of the binary wire over a fixed cutoff sweep: 20 ticks up
/// and back down over 400 residues. Frame version 2 ships dense changed-
/// index sets as bitmaps and view 1's colours as a one-byte back-reference
/// to view 0's. The sweep measured 117 993 bytes (the same at 1, 2 and 4
/// OpenMP threads); version 1 frames shipped 162 377. The budget is the
/// measured total + 2%, so a silent fallback to gap lists or to per-view
/// colour sections fails here.
TEST(Widget, BinaryWireByteBudgetOnCutoffSweep) {
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = 2;
    gen.seed = 3;
    const auto traj = md::TrajectoryGenerator(gen).generate(md::helixBundle(400));
    RinWidget::Options opts;
    opts.wireFormat = WireFormat::Binary;
    opts.seed = 3;
    RinWidget widget(traj, opts);

    std::size_t total = 0;
    for (int k = 1; k <= 20; ++k) {
        const double cutoff = 4.5 + 0.2 * (k <= 10 ? k : 20 - k);
        const auto t = widget.setCutoff(cutoff);
        total += t.wireBytes;
        ASSERT_EQ(widget.wireClient().edges(), widget.graph().edges()) << "tick " << k;
    }
    const std::size_t measured = 117993;
    EXPECT_LE(total, measured + measured / 50);
}

TEST(Widget, DropWireClientForcesResyncKeyframe) {
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = 4;
    const auto traj = md::TrajectoryGenerator(gen).generate(md::chignolin());
    RinWidget::Options opts;
    opts.wireFormat = WireFormat::Binary;
    RinWidget widget(traj, opts);

    // A measure switch leaves positions untouched: guaranteed delta frame
    // (a frame switch may trip the grid trigger on a small protein).
    const auto tDelta = widget.setMeasure(Measure::Degree);
    EXPECT_FALSE(tDelta.wireKeyframe);

    widget.dropWireClient(); // simulated tab reload
    const auto tResync = widget.setFrame(2);
    EXPECT_TRUE(tResync.wireKeyframe);
    EXPECT_STREQ(widget.wireStats().reason, "resync");
    EXPECT_EQ(widget.wireClient().edges(), widget.graph().edges());
}

TEST(Widget, JsonModeIsByteIdenticalWithWireFieldsFilled) {
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = 3;
    const auto traj = md::TrajectoryGenerator(gen).generate(md::alpha3D());
    RinWidget widget(traj);
    const auto t = widget.setCutoff(6.0);
    EXPECT_FALSE(t.binaryWire);
    EXPECT_FALSE(t.wireKeyframe);
    EXPECT_EQ(t.wireBytes, widget.figureJson().size());
    EXPECT_EQ(t.wireBytes, t.serializedBytes);
    EXPECT_TRUE(widget.wireFrame().empty());
}

TEST(RinExplorer, CatalogueAndAnalysis) {
    auto explorer = RinExplorer::forProtein("alpha3D");
    EXPECT_EQ(explorer.trajectory().topology().size(), 73u);
    // Fig. 3: communities reflect helices.
    EXPECT_GT(explorer.communityStructureAgreement(), 0.5);
    // Hubs grow with cutoff.
    const count hubsLow = explorer.hubCount(10);
    explorer.widget().setCutoff(7.5);
    EXPECT_GT(explorer.hubCount(10), hubsLow);
    EXPECT_THROW(RinExplorer::forProtein("nonexistent"), std::invalid_argument);
}

TEST(RinExplorer, BundleSizing) {
    RinExplorer::Options opts;
    opts.frames = 2;
    auto explorer = RinExplorer::forProtein("bundle:150", opts);
    EXPECT_EQ(explorer.widget().graph().numberOfNodes(), 150u);
}

TEST(RinExplorer, ExportsFiles) {
    RinExplorer::Options opts;
    opts.frames = 2;
    auto explorer = RinExplorer::forProtein("chignolin", opts);
    explorer.exportPdb("/tmp/rinkit_test_export.pdb");
    explorer.exportFigure("/tmp/rinkit_test_export.json");
    std::ifstream pdb("/tmp/rinkit_test_export.pdb");
    std::string firstLine;
    std::getline(pdb, firstLine);
    EXPECT_EQ(firstLine.rfind("ATOM", 0), 0u);
    std::ifstream fig("/tmp/rinkit_test_export.json");
    std::string json((std::istreambuf_iterator<char>(fig)),
                     std::istreambuf_iterator<char>());
    EXPECT_NO_THROW(JsonValue::parse(json));
}

} // namespace
} // namespace rinkit::viz
