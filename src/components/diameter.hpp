#pragma once

#include <cstdint>

#include "src/graph/graph.hpp"

namespace rinkit {

/// Eccentricity of @p u: longest hop distance to any reachable node.
count eccentricity(const Graph& g, node u);

/// Exact diameter of the largest connected component via all-sources BFS.
/// O(n * m) — fine for RIN-sized graphs.
count diameterExact(const Graph& g);

/// Lower bound on the diameter via iterated double sweeps: BFS from a
/// random node, then from the farthest node found, repeated. Cheap and
/// usually tight on real networks; used by KadabraBetweenness to bound the
/// vertex diameter.
count diameterEstimate(const Graph& g, count sweeps = 4, std::uint64_t seed = 1);

} // namespace rinkit
