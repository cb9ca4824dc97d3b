#include "src/graph/graph_io.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "src/graph/graph_builder.hpp"

namespace rinkit::io {

namespace {

// Skips METIS comment lines (starting with '%'), and blank lines too when
// @p skipBlank. Node lines must keep them: an isolated node is written as
// an empty line.
bool nextContentLine(std::istream& in, std::string& line, bool skipBlank) {
    while (std::getline(in, line)) {
        if (line.empty() ? !skipBlank : line[0] != '%') return true;
    }
    return false;
}

} // namespace

Graph readMetis(std::istream& in) {
    std::string line;
    if (!nextContentLine(in, line, /*skipBlank=*/true)) {
        throw std::runtime_error("METIS: missing header line");
    }
    std::istringstream header(line);
    count n = 0, m = 0;
    int fmt = 0;
    header >> n >> m;
    if (header.fail()) throw std::runtime_error("METIS: malformed header");
    header >> fmt; // optional; absent -> 0
    const bool weighted = (fmt == 1 || fmt == 11);
    if (fmt != 0 && fmt != 1) {
        throw std::runtime_error("METIS: unsupported format flag " + std::to_string(fmt));
    }

    // Bound the header by the body before Graph allocates n nodes: every
    // node owns a line (at least its newline), and each of the m edges
    // appears twice as a neighbour id plus a separator.
    std::string body((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    if (n > body.size()) {
        throw std::runtime_error("METIS: header node count " + std::to_string(n) +
                                 " exceeds the remaining input");
    }
    if (m > body.size() / 2) {
        throw std::runtime_error("METIS: header edge count " + std::to_string(m) +
                                 " exceeds the remaining input");
    }
    std::istringstream bodyIn(std::move(body));

    Graph g(n, weighted);
    for (node u = 0; u < n; ++u) {
        if (!nextContentLine(bodyIn, line, /*skipBlank=*/false)) {
            throw std::runtime_error("METIS: premature end of file at node " +
                                     std::to_string(u));
        }
        std::istringstream ls(line);
        count v1 = 0; // METIS is 1-based
        while (ls >> v1) {
            if (v1 == 0 || v1 > n) throw std::runtime_error("METIS: neighbor id out of range");
            edgeweight w = 1.0;
            if (weighted && !(ls >> w)) {
                throw std::runtime_error("METIS: missing edge weight");
            }
            const node v = static_cast<node>(v1 - 1);
            if (u < v) g.addEdge(u, v, w); // each edge appears twice; add once
        }
    }
    if (g.numberOfEdges() != m) {
        throw std::runtime_error("METIS: header edge count " + std::to_string(m) +
                                 " does not match body (" +
                                 std::to_string(g.numberOfEdges()) + ")");
    }
    return g;
}

Graph readMetisFile(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    return readMetis(in);
}

void writeMetis(const Graph& g, std::ostream& out) {
    out << g.numberOfNodes() << ' ' << g.numberOfEdges();
    if (g.isWeighted()) out << " 1";
    out << '\n';
    g.forNodes([&](node u) {
        bool first = true;
        g.forWeightedNeighborsOf(u, [&](node, node v, edgeweight w) {
            if (!first) out << ' ';
            first = false;
            out << (v + 1);
            if (g.isWeighted()) out << ' ' << w;
        });
        out << '\n';
    });
}

void writeMetisFile(const Graph& g, const std::string& path) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open " + path);
    writeMetis(g, out);
}

Graph readEdgeList(std::istream& in, count n, bool weighted) {
    std::vector<std::tuple<node, node, edgeweight>> edges;
    count maxId = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ls(line);
        // Signed parse: streaming "-1" into an unsigned id would wrap to a
        // huge node count instead of failing.
        long long a = 0, b = 0;
        if (!(ls >> a >> b)) throw std::runtime_error("edge list: malformed line: " + line);
        if (a < 0 || b < 0) throw std::runtime_error("edge list: negative node id: " + line);
        const long long limit = n > 0 ? static_cast<long long>(std::min<count>(n, none))
                                      : static_cast<long long>(none);
        if (a >= limit || b >= limit)
            throw std::runtime_error("edge list: node id out of range: " + line);
        const node u = static_cast<node>(a), v = static_cast<node>(b);
        edgeweight w = 1.0;
        if (weighted) ls >> w;
        edges.emplace_back(u, v, w);
        maxId = std::max<count>(maxId, std::max(u, v));
    }
    const count nodes = n > 0 ? n : (edges.empty() ? 0 : maxId + 1);
    GraphBuilder builder(nodes, weighted);
    for (auto [u, v, w] : edges) builder.addEdge(u, v, w);
    return builder.build();
}

Graph readEdgeListFile(const std::string& path, count n, bool weighted) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    return readEdgeList(in, n, weighted);
}

void writeEdgeList(const Graph& g, std::ostream& out) {
    g.forWeightedEdges([&](node u, node v, edgeweight w) {
        out << u << ' ' << v;
        if (g.isWeighted()) out << ' ' << w;
        out << '\n';
    });
}

void writeEdgeListFile(const Graph& g, const std::string& path) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open " + path);
    writeEdgeList(g, out);
}

} // namespace rinkit::io
