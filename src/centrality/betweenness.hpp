#pragma once

#include "src/centrality/centrality.hpp"

namespace rinkit {

/// Exact betweenness centrality (Brandes 2001), OpenMP-parallel over
/// sources with per-thread accumulators.
///
/// High betweenness marks residues in protein-protein interfaces and on
/// information-flow paths through the protein (Jiao & Ranganathan 2017;
/// Stetz & Verkhivker 2017) — the second named measure in the paper's
/// widget. O(n * m); exact computation is the right choice for RIN-sized
/// graphs (100-1000 nodes), while KadabraBetweenness covers large inputs.
class Betweenness final : public CentralityAlgorithm {
public:
    explicit Betweenness(const Graph& g, bool normalized = false)
        : CentralityAlgorithm(g), normalized_(normalized) {}

private:
    void runImpl(const CsrView& view) override;

    bool normalized_;
};

} // namespace rinkit
