// File-based I/O round trips and failure injection: unreadable paths,
// truncated files, hostile headers and ids, and cross-format consistency
// on disk.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "src/core/rin_explorer.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/graph_io.hpp"
#include "src/md/md_io.hpp"
#include "src/md/synthetic.hpp"
#include "src/md/trajectory.hpp"

namespace rinkit {
namespace {

class TempDir : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("rinkit_io_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path(const std::string& name) const { return (dir_ / name).string(); }

    std::filesystem::path dir_;
};

TEST_F(TempDir, MetisFileRoundTrip) {
    const auto g = generators::erdosRenyi(50, 0.1, 8);
    io::writeMetisFile(g, path("g.metis"));
    const auto h = io::readMetisFile(path("g.metis"));
    EXPECT_TRUE(g == h);
}

// METIS writes an isolated node as an empty line; reading must keep it as
// that node's line, in the middle of the body and at its end.
TEST_F(TempDir, MetisRoundTripKeepsIsolatedNodes) {
    Graph g(3);
    g.addEdge(0, 2);
    io::writeMetisFile(g, path("middle.metis"));
    std::ostringstream written;
    io::writeMetis(g, written);
    EXPECT_EQ(written.str(), "3 1\n3\n\n1\n");
    EXPECT_TRUE(io::readMetisFile(path("middle.metis")) == g);

    Graph h(5);
    h.addEdge(0, 2);
    h.addEdge(2, 3); // nodes 1 and 4 isolated, 4 on the last line
    io::writeMetisFile(h, path("end.metis"));
    EXPECT_TRUE(io::readMetisFile(path("end.metis")) == h);
}

TEST_F(TempDir, EdgeListFileRoundTrip) {
    Graph g(5, true);
    g.addEdge(0, 1, 2.5);
    g.addEdge(3, 4, 0.25);
    io::writeEdgeListFile(g, path("g.edges"));
    const auto h = io::readEdgeListFile(path("g.edges"), 5, true);
    EXPECT_TRUE(g == h);
}

TEST_F(TempDir, MissingFilesThrow) {
    EXPECT_THROW(io::readMetisFile(path("nope.metis")), std::runtime_error);
    EXPECT_THROW(io::readEdgeListFile(path("nope.edges")), std::runtime_error);
    EXPECT_THROW(md::io::readPdbFile(path("nope.pdb")), std::runtime_error);
    EXPECT_THROW(md::io::readXyzTrajectoryFile(path("nope.xyz"), md::chignolin()),
                 std::runtime_error);
    // Writing into a non-existing directory fails cleanly.
    EXPECT_THROW(io::writeMetisFile(Graph(1), path("no/such/dir/g.metis")),
                 std::runtime_error);
}

TEST_F(TempDir, TruncatedMetisRejected) {
    std::ofstream(path("trunc.metis")) << "5 4\n2\n1 3\n"; // promises 5 node lines
    EXPECT_THROW(io::readMetisFile(path("trunc.metis")), std::runtime_error);
}

TEST_F(TempDir, TruncatedXyzRejected) {
    const auto protein = md::chignolin();
    std::ofstream(path("trunc.xyz")) << protein.atomCount() << "\nframe 0\nC 0 0 0\n";
    EXPECT_THROW(md::io::readXyzTrajectoryFile(path("trunc.xyz"), protein),
                 std::runtime_error);
}

// Hostile headers and ids: each used to escape as std::bad_alloc (a huge
// allocation sized from the input) or be accepted silently.

TEST(HostileFileInputs, EdgeListRejectsNegativeIds) {
    std::istringstream in("-1 2\n");
    EXPECT_THROW(io::readEdgeList(in), std::runtime_error);
    std::istringstream in2("0 1\n3 -7\n");
    EXPECT_THROW(io::readEdgeList(in2), std::runtime_error);
}

TEST(HostileFileInputs, EdgeListRejectsIdsAtOrAboveGivenNodeCount) {
    std::istringstream in("0 1\n1 4\n");
    EXPECT_THROW(io::readEdgeList(in, 4), std::runtime_error);
    std::istringstream ok("0 1\n1 3\n");
    EXPECT_EQ(io::readEdgeList(ok, 4).numberOfEdges(), 2u);
}

TEST(HostileFileInputs, MetisHeaderBoundedByRemainingInput) {
    std::istringstream nodes("99999999999 1\n2\n1\n");
    EXPECT_THROW(io::readMetis(nodes), std::runtime_error);
    std::istringstream edges("2 99999999999\n2\n1\n");
    EXPECT_THROW(io::readMetis(edges), std::runtime_error);
    std::istringstream honest("2 1\n2\n1\n");
    EXPECT_EQ(io::readMetis(honest).numberOfEdges(), 1u);
}

TEST(HostileFileInputs, PdbRejectsNonFiniteCoordinates) {
    std::ostringstream out;
    md::io::writePdb(md::chignolin(), out);
    const std::string pdb = out.str();
    for (const char* bad : {"     nan", "     inf", "    -inf"}) {
        std::string text = pdb;
        text.replace(38, 8, bad); // y of the first ATOM record
        std::istringstream in(text);
        EXPECT_THROW(md::io::readPdb(in, "bad"), std::runtime_error) << bad;
    }
    std::istringstream in(pdb);
    EXPECT_EQ(md::io::readPdb(in, "ok").size(), md::chignolin().size());
}

TEST_F(TempDir, PdbFileRoundTripViaDisk) {
    const auto p = md::villinHeadpiece();
    md::io::writePdbFile(p, path("v.pdb"));
    const auto q = md::io::readPdbFile(path("v.pdb"));
    ASSERT_EQ(q.size(), p.size());
    // RIN built from the re-read structure matches (PDB keeps 3 decimals,
    // far below contact-detection resolution).
    rin::RinBuilder builder(rin::DistanceCriterion::AlphaCarbon);
    EXPECT_TRUE(builder.build(p, 6.0) == builder.build(q, 6.0));
}

TEST_F(TempDir, ExplorerRoundTripsTrajectoryThroughXyz) {
    // Generate -> persist to XYZ -> reload -> identical widget graph.
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = 4;
    const auto traj = md::TrajectoryGenerator(gen).generate(md::chignolin());
    md::io::writeXyzTrajectoryFile(traj, path("t.xyz"));
    const auto loaded = md::io::readXyzTrajectoryFile(path("t.xyz"), traj.topology());
    ASSERT_EQ(loaded.frameCount(), 4u);

    viz::RinWidget::Options opts;
    auto a = RinExplorer::forTrajectory(md::Trajectory(traj), opts);
    auto b = RinExplorer::forTrajectory(md::Trajectory(loaded), opts);
    a.widget().setFrame(2);
    b.widget().setFrame(2);
    EXPECT_TRUE(a.widget().graph() == b.widget().graph());
}

} // namespace
} // namespace rinkit
