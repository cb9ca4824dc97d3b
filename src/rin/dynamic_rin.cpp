#include "src/rin/dynamic_rin.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/obs/trace.hpp"

namespace rinkit::rin {

DynamicRin::DynamicRin(const md::Trajectory& traj, DistanceCriterion criterion,
                       double initialCutoff, index initialFrame)
    : traj_(traj), builder_(criterion), cutoff_(initialCutoff), frame_(initialFrame),
      protein_(traj.proteinAtFrame(initialFrame)), graph_(protein_.size()) {
    applyContacts();
}

DynamicRin::UpdateStats DynamicRin::applyContacts() {
    // contacts_ caches the sorted contact list of the current frame at the
    // largest cutoff seen so far; any cutoff <= contactsCutoff_ is a pure
    // filter of that list (contacts at C' >= C restricted to d <= C are
    // exactly the contacts at C).
    if (!ws_.geometryValid || cutoff_ > contactsCutoff_) {
        builder_.contactsInto(protein_, cutoff_, ws_, contacts_);
        contactsCutoff_ = cutoff_;
    }

    diffAgainstGraph(contacts_, cutoff_, addBuf_, removeBuf_);
    for (auto [u, v] : removeBuf_) graph_.removeEdge(u, v);
    for (auto [u, v] : addBuf_) graph_.addEdge(u, v);
    UpdateStats stats;
    stats.edgesRemoved = removeBuf_.size();
    stats.edgesAdded = addBuf_.size();
    stats.edgesTotal = graph_.numberOfEdges();
    return stats;
}

DynamicRin::UpdateStats DynamicRin::setCutoff(double cutoff) {
    if (cutoff <= 0.0) throw std::invalid_argument("DynamicRin: cutoff must be > 0");
    obs::ScopedSpan span("rin.cutoff_diff");
    // A cutoff under the cached contact list's cutoff is served as a pure
    // filter — no geometry work; the span attribute makes the fast path
    // visible per request in the exported trace.
    span.attr("cutoff", cutoff);
    span.attr("pure_filter", ws_.geometryValid && cutoff <= contactsCutoff_);
    cutoff_ = cutoff;
    const UpdateStats stats = applyContacts();
    span.attr("edges_added", stats.edgesAdded);
    span.attr("edges_removed", stats.edgesRemoved);
    return stats;
}

DynamicRin::UpdateStats DynamicRin::setFrame(index frame) {
    if (frame >= traj_.frameCount()) throw std::out_of_range("DynamicRin: invalid frame");
    obs::ScopedSpan span("rin.frame_diff");
    span.attr("frame", static_cast<double>(frame));
    frame_ = frame;
    if (frameSlotReady(frame)) {
        // Prediction hit: adopt the precomputed conformation + contact
        // cache by swap — only the edge merge remains.
        std::swap(protein_, specProtein_);
        std::swap(ws_, specWs_);
        std::swap(contacts_, specContacts_);
        contactsCutoff_ = specCutoff_;
        specValid_ = false;
        span.attr("speculated", true);
    } else {
        // Move the conformation in place: topology (names, residue layout)
        // is frame-invariant, so only atom positions need to change.
        specValid_ = false; // stale prediction; drop rather than age the slot
        protein_.setAtomPositions(traj_.frame(frame));
        ws_.invalidate();
        contactsCutoff_ = 0.0;
    }
    const UpdateStats stats = applyContacts();
    span.attr("edges_added", stats.edgesAdded);
    span.attr("edges_removed", stats.edgesRemoved);
    return stats;
}

void DynamicRin::predictCutoff(double cutoff, std::vector<std::pair<node, node>>& added,
                               std::vector<std::pair<node, node>>& removed) {
    if (cutoff <= 0.0) throw std::invalid_argument("DynamicRin: cutoff must be > 0");
    if (!ws_.geometryValid || cutoff > contactsCutoff_) {
        obs::ScopedSpan span("rin.speculate_contacts");
        span.attr("cutoff", cutoff);
        builder_.contactsInto(protein_, cutoff, ws_, contacts_);
        contactsCutoff_ = cutoff;
    }
    diffAgainstGraph(contacts_, cutoff, added, removed);
}

bool DynamicRin::predictFrame(index frame, std::vector<std::pair<node, node>>& added,
                              std::vector<std::pair<node, node>>& removed) {
    if (frame == frame_ || frame >= traj_.frameCount()) {
        specValid_ = false;
        return false;
    }
    if (!frameSlotReady(frame)) {
        obs::ScopedSpan span("rin.speculate_frame");
        span.attr("frame", static_cast<double>(frame));
        specValid_ = false;
        if (specProtein_.size() != protein_.size()) specProtein_ = protein_;
        specProtein_.setAtomPositions(traj_.frame(frame));
        specWs_.invalidate();
        builder_.contactsInto(specProtein_, cutoff_, specWs_, specContacts_);
        specFrame_ = frame;
        specCutoff_ = cutoff_;
        specValid_ = true;
    }
    diffAgainstGraph(specContacts_, cutoff_, added, removed);
    return true;
}

void DynamicRin::diffAgainstGraph(const std::vector<Contact>& contacts, double cutoff,
                                  std::vector<std::pair<node, node>>& added,
                                  std::vector<std::pair<node, node>>& removed) const {
    // Merge the desired contacts (sorted by (u, v)) directly against the
    // graph's sorted adjacency, node by node, over the forward neighbors
    // v > u. Mismatches go into the add/remove buffers; no throwaway
    // "desired" graph, no hasEdge lookups. Contacts beyond @p cutoff are
    // cached at a larger one and skipped.
    added.clear();
    removed.clear();
    const count n = graph_.numberOfNodes();
    std::size_t ci = 0;
    for (node u = 0; u < n; ++u) {
        const auto nb = graph_.neighbors(u);
        auto it = std::upper_bound(nb.begin(), nb.end(), u);
        while (ci < contacts.size() && contacts[ci].u == u) {
            const Contact& c = contacts[ci++];
            if (c.distance > cutoff) continue;
            while (it != nb.end() && *it < c.v) removed.emplace_back(u, *it++);
            if (it != nb.end() && *it == c.v) {
                ++it;
            } else {
                added.emplace_back(u, c.v);
            }
        }
        while (it != nb.end()) removed.emplace_back(u, *it++);
    }
}

} // namespace rinkit::rin
