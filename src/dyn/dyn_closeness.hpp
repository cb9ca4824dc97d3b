#pragma once

#include <cstdint>
#include <vector>

#include "src/dyn/dyn_bfs.hpp"
#include "src/dyn/edge_batch.hpp"
#include "src/graph/csr_view.hpp"

namespace rinkit::dyn {

/// Incrementally maintained closeness (Standard *and* Harmonic from one
/// state): a packed n x n level matrix plus per-source distance sums,
/// repaired per batch by LevelRepairer and rolled into the aggregates as
/// +/- deltas. Both ClosenessCentrality variants read off the same three
/// aggregates, so one repair serves both widget measures.
///
/// Accuracy contract (see DESIGN.md): sumDist and reached are integer
/// deltas on doubles/counts — Standard closeness is bit-equal to the
/// from-scratch kernel; sumInv accumulates 1/d in changed order, so
/// Harmonic agrees to ~1e-12 relative per update (tested at 1e-9 over
/// whole random sequences).
class DynCloseness {
public:
    /// From-scratch prime on @p v: runs one BFS per source (OpenMP over
    /// sources) and stores levels + aggregates. This *is* an exact
    /// computation — the engine serves its scores as tier "exact".
    void init(const CsrView& v);

    bool primed() const { return primed_; }
    std::uint64_t version() const { return version_; }
    count numberOfNodes() const { return n_; }

    /// Applies @p batch (diff to exactly @p v's edge set). Requires
    /// primed() and an unchanged node count.
    void update(const CsrView& v, const EdgeBatch& batch);

    /// Scores in ClosenessCentrality's exact semantics (Wasserman-Faust
    /// composite for Standard, sum of reciprocals for Harmonic).
    std::vector<double> scores(bool harmonic, bool normalized = true) const;

    void reset();

private:
    count n_ = 0;
    std::uint64_t version_ = 0;
    bool primed_ = false;
    std::vector<std::uint16_t> lvl_;  ///< n x n, row per source
    std::vector<double> sumDist_;     ///< per source, integer-valued
    std::vector<double> sumInv_;      ///< per source
    std::vector<count> reached_;      ///< per source, excludes the source
};

} // namespace rinkit::dyn
