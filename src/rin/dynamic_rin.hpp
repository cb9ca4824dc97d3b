#pragma once

#include "src/graph/graph.hpp"
#include "src/md/trajectory.hpp"
#include "src/rin/rin_builder.hpp"

namespace rinkit::rin {

/// The RIN of a trajectory under interactive (frame, cutoff) control —
/// the server-side network state behind the widget's two sliders.
///
/// Instead of rebuilding the graph from scratch on every slider event,
/// DynamicRin diffs the new contact set against the current edge set and
/// applies only the additions/removals (the "adding/removing edges" phase
/// the paper measures in Figs. 7-8). The node set never changes — exactly
/// as in the paper, where frame and cutoff "do not change the number of
/// nodes in the network".
///
/// Update fast path: the sorted contact list of the current frame is
/// cached at the largest cutoff computed so far, so a cutoff *decrease*
/// is a pure filter (no geometry work at all) and a cutoff increase
/// reuses the cached representative points/spreads and, when possible,
/// the cell list (ContactWorkspace). The diff itself merges the sorted
/// contact list directly against the graph's sorted adjacency — no
/// throwaway Graph, no per-edge hasEdge lookups. Frame switches update
/// atom positions in place instead of copying the whole topology.
class DynamicRin {
public:
    /// Statistics of one update, as reported in the paper's benchmarks.
    struct UpdateStats {
        count edgesAdded = 0;
        count edgesRemoved = 0;
        count edgesTotal = 0;
    };

    DynamicRin(const md::Trajectory& traj, DistanceCriterion criterion,
               double initialCutoff, index initialFrame = 0);

    const Graph& graph() const { return graph_; }
    double cutoff() const { return cutoff_; }
    index frame() const { return frame_; }
    DistanceCriterion criterion() const { return builder_.criterion(); }

    /// The protein conformation of the current frame.
    const md::Protein& protein() const { return protein_; }

    /// Switches the distance cutoff, diffing edges in place.
    UpdateStats setCutoff(double cutoff);

    /// Switches the trajectory frame: atom positions move, contacts are
    /// redetected from scratch geometry, and the result is merged against
    /// the graph. setFrame(frame()) re-derives the current RIN this way; on
    /// a consistent graph its diff is empty, so the version (and every
    /// cache keyed on it) survives. The graph object itself is never
    /// replaced, so its version only ever grows.
    UpdateStats setFrame(index frame);

    /// Exact edge diff of the most recent setCutoff/setFrame, sorted
    /// (u < v, lexicographic). Valid until the next update. This is what
    /// the wire-protocol delta encoder ships instead of re-deriving the
    /// diff from two full edge lists.
    const std::vector<std::pair<node, node>>& lastAdded() const { return addBuf_; }
    const std::vector<std::pair<node, node>>& lastRemoved() const { return removeBuf_; }

    // ---- Speculative precompute (idle-capacity prefetch) -------------
    //
    // All of it is side work: nothing below mutates the graph or the
    // (frame, cutoff) position, so a cancelled or wrong speculation never
    // changes what a client observes. A correct prediction turns the next
    // real setCutoff/setFrame into a cached merge. Both predictions run the
    // same merge as the live update, into the caller's buffers (sorted
    // like lastAdded/lastRemoved).

    /// Edge diff setCutoff(@p cutoff) would apply. Extends the current
    /// frame's contact cache up to @p cutoff first, so the later
    /// setCutoff is a pure filter with no geometry work.
    void predictCutoff(double cutoff, std::vector<std::pair<node, node>>& added,
                       std::vector<std::pair<node, node>>& removed);

    /// Edge diff setFrame(@p frame) would apply at the current cutoff.
    /// Computes the frame's conformation and contacts into a side slot
    /// that setFrame(@p frame) adopts by swap, leaving only its merge.
    /// Returns false (and clears the slot) when @p frame is the current
    /// frame or out of range.
    bool predictFrame(index frame, std::vector<std::pair<node, node>>& added,
                      std::vector<std::pair<node, node>>& removed);

    void dropFrameSpeculation() { specValid_ = false; }

private:
    UpdateStats applyContacts();
    /// True when the side slot holds @p frame at a covering cutoff.
    bool frameSlotReady(index frame) const {
        return specValid_ && specFrame_ == frame && specCutoff_ >= cutoff_;
    }
    /// The one merge of a sorted contact list against the graph's sorted
    /// adjacency: the edge diff an update to (contacts, cutoff) applies.
    void diffAgainstGraph(const std::vector<Contact>& contacts, double cutoff,
                          std::vector<std::pair<node, node>>& added,
                          std::vector<std::pair<node, node>>& removed) const;

    const md::Trajectory& traj_;
    RinBuilder builder_;
    double cutoff_;
    index frame_;
    md::Protein protein_;
    Graph graph_;

    ContactWorkspace ws_;            // cached geometry + detection scratch
    std::vector<Contact> contacts_;  // sorted contacts at contactsCutoff_
    double contactsCutoff_ = 0.0;    // largest cutoff computed for this frame
    std::vector<std::pair<node, node>> addBuf_, removeBuf_; // diff scratch

    // Speculative frame side slot (predictFrame): an alternate
    // conformation + contact cache that setFrame adopts by swap on a
    // prediction hit. Owned workspaces keep speculation from clobbering
    // the live geometry cache.
    bool specValid_ = false;
    index specFrame_ = 0;
    double specCutoff_ = 0.0; // cutoff specContacts_ was computed at
    md::Protein specProtein_;
    ContactWorkspace specWs_;
    std::vector<Contact> specContacts_;
};

} // namespace rinkit::rin
