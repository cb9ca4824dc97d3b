#include "src/viz/widget.hpp"

#include <algorithm>
#include <cmath>

#include "src/layout/multilevel_maxent_stress.hpp"
#include "src/obs/trace.hpp"
#include "src/viz/figure.hpp"

namespace rinkit::viz {

// The update cycle is instrumented with obs spans and *derives* the
// UpdateTiming fields from them (ScopedSpan::finishMs is the single pair
// of clock reads per phase), so the trace a request exports and the
// timing struct the serving layer aggregates can never disagree.

RinWidget::RinWidget(const md::Trajectory& traj, Options options)
    : options_(options),
      rin_(traj, options.criterion, options.initialCutoff, options.initialFrame),
      engine_(MeasureEngine::Options{.seed = options.seed}),
      measure_(options.initialMeasure),
      wireEncoder_(wire::DeltaEncoderOptions{options.wireKeyframeInterval}) {
    Predictor::Options pred;
    pred.frameCount = traj.frameCount();
    predictor_ = Predictor(pred);
    // DynamicRin's constructor already built the RIN: the first frame only
    // needs its layout, scores and a full-edge-list render.
    UpdateTiming t;
    redraw(t);
}

RinWidget::WarmLayout RinWidget::warmLayout(const Graph& g, MaxentWorkspace* ws,
                                            std::function<bool()> abortCheck) const {
    MaxentStress::Parameters params;
    params.iterations = options_.layoutIterations;
    params.warmStartIterations = options_.layoutWarmStartIterations;
    params.seed = options_.seed;
    params.abortCheck = std::move(abortCheck);
    MaxentStress layout(g, 3, params);
    if (ws) layout.setWorkspace(ws);
    layout.setInitialCoordinates(maxentCoords_);
    layout.run();
    return {layout.getCoordinates(), layout.iterationsDone(), layout.converged(),
            layout.aborted()};
}

void RinWidget::recomputeLayout(UpdateTiming& t) {
    obs::ScopedSpan span("widget.layout");
    const Graph& g = rin_.graph();
    // Seed with the previous layout so consecutive frames stay visually
    // coherent (and converge faster).
    const bool warmStart = maxentCoords_.size() == g.numberOfNodes();
    count iterationsDone = 0;
    count levels = 1;
    count coarsestNodes = g.numberOfNodes();
    bool converged = false;

    if (!warmStart) {
        // Cold start (first frame, or recovery after a degraded stretch
        // changed the node count): full multilevel V-cycle (coarsen /
        // solve coarsest / prolong+refine).
        MultilevelMaxentStress::Parameters params;
        params.sweep.seed = options_.seed;
        MultilevelMaxentStress layout(g, 3, params);
        layout.setWorkspace(&layoutWorkspace_);
        layout.run();
        maxentCoords_ = layout.getCoordinates();
        iterationsDone = layout.iterationsDone();
        levels = layout.levels();
        coarsestNodes = layout.coarsestNodes();
        converged = layout.converged();
    } else {
        // Warm start: the capped fine-level polish.
        WarmLayout layout = warmLayout(g, &layoutWorkspace_, {});
        maxentCoords_ = std::move(layout.coords);
        iterationsDone = layout.iterations;
        converged = layout.converged;
    }
    span.attr("warm_start", warmStart);
    span.attr("iterations_done", iterationsDone);
    span.attr("converged", converged);
    span.attr("levels", levels);
    span.attr("coarsest_nodes", coarsestNodes);
    t.layoutMs = span.finishMs();
}

void RinWidget::recomputeMeasure(UpdateTiming& t) {
    if (!measure_) return;
    obs::ScopedSpan span("widget.measure");
    if (!scores_.empty()) buffer_ = scores_; // keep the most recent result
    MeasureEngine::Request req;
    req.degrade = degradeLevel_;
    MeasureEngine::ResultInfo resultInfo;
    scores_ = engine_.scores(rin_.graph(), *measure_, req, &resultInfo);
    t.measureCacheHit = resultInfo.cacheHit;
    t.measureTier = resultInfo.tier;
    t.measureEps = resultInfo.epsilon;
    t.measureDelta = resultInfo.delta;
    t.measureSamples = resultInfo.samples;
    span.attr("measure", measureName(*measure_));
    span.attr("cache_hit", t.measureCacheHit);
    span.attr("degraded", degraded());
    span.attr("tier", tierName(resultInfo.tier));
    if (resultInfo.epsilon > 0.0) span.attr("eps", resultInfo.epsilon);
    if (resultInfo.samples > 0) span.attr("samples", resultInfo.samples);
    t.measureMs = span.finishMs();
}

bool RinWidget::speculate(const std::function<bool()>& cancelled) {
    const Prediction pred = predictor_.predict();
    if (!pred.valid()) return false;
    const std::uint64_t version = rin_.graph().version();
    if (spec_.valid && spec_.baseVersion == version && spec_.pred.kind == pred.kind &&
        spec_.pred.frame == pred.frame && spec_.pred.cutoff == pred.cutoff &&
        spec_.measure == measure_)
        return true; // exactly this speculation is already pending
    spec_.valid = false;

    obs::ScopedSpan span("widget.speculate");
    span.attr("kind", pred.kind == Prediction::Kind::Frame ? "frame" : "cutoff");
    const auto aborted = [&] { return cancelled && cancelled(); };

    // Phase 1 — the predicted edge diff. Both predictions are pure cache
    // warming on DynamicRin (an extended contact cache, a frame side slot):
    // legal to keep even when a later phase aborts, never visible to the
    // client.
    Speculation spec;
    spec.pred = pred;
    spec.baseVersion = version;
    if (pred.kind == Prediction::Kind::Frame) {
        if (!rin_.predictFrame(pred.frame, spec.added, spec.removed)) return false;
    } else {
        rin_.predictCutoff(pred.cutoff, spec.added, spec.removed);
    }
    if (aborted()) {
        span.attr("cancelled", true);
        return false;
    }

    // Phase 2 — the predicted graph, as a copy the live graph never sees.
    Graph predicted = rin_.graph();
    for (auto [u, v] : spec.removed) predicted.removeEdge(u, v);
    for (auto [u, v] : spec.added) predicted.addEdge(u, v);
    if (aborted()) {
        span.attr("cancelled", true);
        return false;
    }

    // Phase 3 — the warm solve the real update would run on this graph
    // (warmLayout), so adopting the result and skipping the real polish
    // changes nothing. It runs on a run-local workspace: the predicted graph
    // lives only for this call, and a persistent rho cache bound to it would
    // key on an address and version the next prediction can repeat.
    // Cooperative abort per outer iteration: speculation must yield to
    // interactive work within ~one sweep, not one whole solve. The check
    // never fires on the adopted path, so the solve stays bit-identical
    // to the real update's (see Parameters::abortCheck).
    WarmLayout layout = warmLayout(predicted, nullptr, aborted);
    if (layout.aborted) {
        span.attr("cancelled", true);
        return false;
    }
    spec.coords = std::move(layout.coords);
    if (aborted()) {
        span.attr("cancelled", true);
        return false;
    }

    // Phase 4 — the current measure, exact, on the predicted graph.
    if (measure_) {
        spec.measure = measure_;
        spec.scores = computeMeasure(predicted, CsrView::fromGraph(predicted), *measure_);
        if (aborted()) {
            span.attr("cancelled", true);
            return false;
        }
    }

    // Phase 5 — pre-serialize the JSON edge traces of the predicted scene
    // (cutoff predictions only: the protein view's positions are the
    // current frame's, which a cutoff tick never moves). Edge traces are a
    // pure function of edge set + positions, both proven identical on
    // adoption, so installing these strings is byte-identical to
    // rebuilding them — and they are the dominant serialization cost of a
    // cutoff tick, the difference between a spec-hit and a markers-only
    // update. Community scenes skip this (their traces are rebuilt with
    // community colors).
    if (pred.kind == Prediction::Kind::Cutoff && options_.wireFormat == WireFormat::Json &&
        !(spec.measure && isCommunityMeasure(*spec.measure))) {
        std::vector<double> zeros;
        if (spec.scores.empty()) zeros.assign(predicted.numberOfNodes(), 0.0);
        const std::vector<double>& shown = spec.scores.empty() ? zeros : spec.scores;
        const Scene left = makeScene(predicted, rin_.protein().alphaCarbons(), shown,
                                     options_.palette, "protein layout", true);
        const Scene right = makeScene(predicted, spec.coords, shown, options_.palette,
                                      "Maxent-Stress layout", true);
        spec.edgeTraces[0] = Figure::edgeTraceJson(left, 0);
        spec.edgeTraces[1] = Figure::edgeTraceJson(right, 1);
        spec.haveEdgeTraces = true;
        if (aborted()) {
            span.attr("cancelled", true);
            return false;
        }
    }
    spec_ = std::move(spec);
    spec_.valid = true;
    span.attr("complete", true);
    return true;
}

bool RinWidget::adoptSpeculation(UpdateTiming& t, Prediction::Kind kind, index frame,
                                 double cutoff, std::uint64_t preVersion) {
    if (!spec_.valid) return false;
    t.specJudged = true;
    Speculation spec = std::move(spec_);
    spec_.valid = false;
    const bool target =
        spec.pred.kind == kind && spec.baseVersion == preVersion &&
        (kind == Prediction::Kind::Frame ? spec.pred.frame == frame
                                         : std::abs(spec.pred.cutoff - cutoff) <= 1e-9);
    // Adoption proof: the speculation must have acted on the exact edge
    // diff the real event just applied to the same base graph. Equal diffs
    // mean identical post-event graphs — this subsumes any floating-point
    // wobble between the predicted and the submitted cutoff value.
    if (!target || rin_.lastAdded() != spec.added || rin_.lastRemoved() != spec.removed)
        return false;
    t.specHit = true;
    if (spec.measure && measure_ == spec.measure)
        engine_.storeExact(rin_.graph(), *measure_, std::move(spec.scores));
    maxentCoords_ = std::move(spec.coords);
    if (spec.haveEdgeTraces) {
        // Same edge set, same positions — the pre-serialized traces are
        // byte-identical to what renderAndShip would rebuild, so the hit's
        // render path costs the same as a markers-only update.
        edgeTraceCache_[0] = std::move(spec.edgeTraces[0]);
        edgeTraceCache_[1] = std::move(spec.edgeTraces[1]);
        edgeTracesValid_ = true;
    }
    return true;
}

const LodMapping* RinWidget::lodMappingFor() {
    const Graph& g = rin_.graph();
    if (g.numberOfNodes() < options_.lodMinNodes) return nullptr;
    if (!lodValid_ || lodVersion_ != g.version()) {
        const count divisor = std::max<count>(2, options_.lodFactor);
        lodMapping_ = buildLodMapping(g, std::max<count>(2, g.numberOfNodes() / divisor));
        lodVersion_ = g.version();
        lodValid_ = true;
    }
    return lodMapping_.coarseNodes > 0 ? &lodMapping_ : nullptr;
}

std::vector<double> RinWidget::displayedScores() const {
    if (!deltaMode_ || buffer_.size() != scores_.size()) return scores_;
    std::vector<double> delta(scores_.size());
    for (count i = 0; i < scores_.size(); ++i) delta[i] = scores_[i] - buffer_[i];
    return delta;
}

void RinWidget::renderAndShip(UpdateTiming& t, bool fullClientUpdate, bool markersOnly,
                              EdgeDelta edgeDelta) {
    const Graph& g = rin_.graph();
    t.degraded = degraded();
    const bool binary = options_.wireFormat == WireFormat::Binary;

    obs::ScopedSpan buildSpan("widget.scene_build");
    // Left view: the real protein conformation (C-alpha positions), the
    // paper's "protein-based layout". Right view: Maxent-Stress.
    const auto proteinCoords = rin_.protein().alphaCarbons();
    std::vector<double> shown = displayedScores();
    if (shown.empty()) shown.assign(g.numberOfNodes(), 0.0);

    // JSON mode: the scenes need the edge list whenever the serialized
    // edge-trace cache is stale. Binary mode: only when the edge delta is
    // unknown (first frame, refresh) — otherwise the delta encoder patches its
    // shadow edge set from DynamicRin's exact diff and never sees (or
    // copies) the full list.
    const bool needEdges = binary ? edgeDelta == EdgeDelta::Full : !edgeTracesValid_;
    const bool community = measure_ && isCommunityMeasure(*measure_) && !deltaMode_;
    Scene left, right;
    if (community) {
        std::vector<index> comm(shown.size());
        for (count i = 0; i < shown.size(); ++i) comm[i] = static_cast<index>(shown[i]);
        left = makeCommunityScene(g, proteinCoords, comm, "protein layout", needEdges);
        right = makeCommunityScene(g, maxentCoords_, comm, "Maxent-Stress layout", needEdges);
    } else {
        left = makeScene(g, proteinCoords, shown, options_.palette, "protein layout",
                         needEdges);
        right = makeScene(g, maxentCoords_, shown, options_.palette,
                          "Maxent-Stress layout", needEdges);
    }
    t.sceneBuildMs = buildSpan.finishMs();

    if (binary) {
        obs::ScopedSpan serializeSpan("widget.serialize");
        static const std::vector<std::pair<node, node>> kNoEdges;
        wire::EdgeDiffHint hint;
        switch (edgeDelta) {
        case EdgeDelta::None:
            hint.added = &kNoEdges;
            hint.removed = &kNoEdges;
            break;
        case EdgeDelta::Diffed:
            hint.added = &rin_.lastAdded();
            hint.removed = &rin_.lastRemoved();
            break;
        case EdgeDelta::Full:
            break; // no hint: the scenes carry the full edge list
        }
        const wire::EdgeDiffHint* hintPtr = edgeDelta == EdgeDelta::Full ? nullptr : &hint;
        wire::DeltaEncoder::LodProvider lodProvider;
        if (options_.lodScenes)
            lodProvider = [this]() { return lodMappingFor(); };
        wireFrame_ =
            wireEncoder_.encode({&left, &right}, shown, wireClient_.ack(), hintPtr, lodProvider);
        const auto& frameStats = wireEncoder_.lastStats();
        t.wireBytes = wireFrame_.size();
        t.binaryWire = true;
        t.wireKeyframe = frameStats.keyframe;
        t.lodCoarse = frameStats.lodCoarse;
        t.lodCoarseNodes = frameStats.lodCoarseNodes;
        // An LOD keyframe is a pair: the coarse frame in wireFrame_ plus a
        // refine delta shipped right behind it. Both count as shipped
        // bytes; the client applies them back to back, so clientMs (time
        // to first pixels) covers the coarse frame only.
        wireRefineFrame_.clear();
        if (wireEncoder_.hasRefineFrame()) {
            wireRefineFrame_ = wireEncoder_.takeRefineFrame();
            t.wireBytes += wireRefineFrame_.size();
        }
        serializeSpan.attr("format", "binary");
        serializeSpan.attr("wire_bytes", static_cast<double>(t.wireBytes));
        serializeSpan.attr("wire_keyframe", frameStats.keyframe);
        serializeSpan.attr("wire_reason", std::string_view(frameStats.reason));
        if (t.lodCoarse)
            serializeSpan.attr("lod_coarse_nodes", static_cast<double>(t.lodCoarseNodes));
        t.serializeMs = serializeSpan.finishMs();

        wire::PatchStats patch;
        t.clientMs = client_.processWirePatch(wireFrame_, wireClient_, &patch);
        t.wirePatchElements = patch.elementsTouched();
        if (!wireRefineFrame_.empty()) {
            wire::PatchStats refinePatch;
            t.clientRefineMs =
                client_.processWirePatch(wireRefineFrame_, wireClient_, &refinePatch);
            t.wirePatchElements += refinePatch.elementsTouched();
        }
    } else {
        obs::ScopedSpan serializeSpan("widget.serialize");
        if (!edgeTracesValid_) {
            edgeTraceCache_[0] = Figure::edgeTraceJson(left, 0);
            edgeTraceCache_[1] = Figure::edgeTraceJson(right, 1);
            t.edgeBytesSerialized = edgeTraceCache_[0].size() + edgeTraceCache_[1].size();
            edgeTracesValid_ = true;
        }
        Figure fig;
        fig.addScene(left, edgeTraceCache_[0]);
        fig.addScene(right, edgeTraceCache_[1]);
        figureJson_ = fig.toJson();
        t.serializedBytes = figureJson_.size();
        t.wireBytes = figureJson_.size();
        serializeSpan.attr("format", "json");
        serializeSpan.attr("serialized_bytes", static_cast<double>(t.serializedBytes));
        serializeSpan.attr("edge_bytes", static_cast<double>(t.edgeBytesSerialized));
        serializeSpan.attr("wire_bytes", static_cast<double>(t.wireBytes));
        t.serializeMs = serializeSpan.finishMs();

        ClientCostModel::Parameters clientParams;
        clientParams.fullUpdate = fullClientUpdate;
        const ClientCostModel client(clientParams);
        // Both scenes ship; markers-only events re-render node markers only.
        const count nodes = 2 * g.numberOfNodes();
        const count edges = markersOnly ? 0 : 2 * g.numberOfEdges();
        t.clientMs = client.processUpdate(figureJson_, nodes, edges);
    }

    // The client phase is modeled, not measured — record it as a span with
    // synthetic extent so the exported trace still shows the full cycle the
    // paper's figures decompose.
    obs::Tracer& tracer = obs::Tracer::global();
    const obs::SpanContext ctx = tracer.currentContext();
    if (ctx.sampled) {
        const double start = tracer.nowUs();
        std::vector<obs::SpanAttr> attrs(binary ? 3 : 2);
        attrs[0].key = "simulated";
        attrs[0].num = 1.0;
        attrs[1].key = "wire_bytes";
        attrs[1].num = static_cast<double>(t.wireBytes);
        if (binary) {
            attrs[2].key = "patch_elements";
            attrs[2].num = static_cast<double>(t.wirePatchElements);
        }
        if (t.clientRefineMs > 0.0) {
            obs::SpanAttr refine;
            refine.key = "refine_ms";
            refine.num = t.clientRefineMs;
            attrs.push_back(refine);
        }
        tracer.recordSpan("widget.client", ctx, tracer.nextId(), ctx.spanId, start,
                          start + t.clientMs * 1000.0, std::move(attrs));
    }
}

RinWidget::UpdateTiming RinWidget::setFrame(index frame) {
    obs::ScopedSpan span("widget.set_frame");
    span.attr("frame", static_cast<double>(frame));
    UpdateTiming t;
    edgeTracesValid_ = false; // node positions move
    const std::uint64_t preVersion = rin_.graph().version();
    {
        obs::ScopedSpan net("widget.network_update");
        t.edgeStats = rin_.setFrame(frame);
        net.attr("edges_added", t.edgeStats.edgesAdded);
        net.attr("edges_removed", t.edgeStats.edgesRemoved);
        net.attr("edges_total", t.edgeStats.edgesTotal);
        t.networkUpdateMs = net.finishMs();
    }
    predictor_.observeFrame(frame);

    if (adoptSpeculation(t, Prediction::Kind::Frame, frame, 0.0, preVersion)) {
        obs::ScopedSpan layoutSpan("widget.layout");
        layoutSpan.attr("speculated", true);
        t.layoutMs = layoutSpan.finishMs();
    } else {
        recomputeLayout(t);
    }
    if (options_.autoRecompute) recomputeMeasure(t);
    // Node positions changed: the client rebuilds every DOM element (JSON
    // mode); the wire encoder ships the exact edge diff + moved positions.
    renderAndShip(t, /*fullClientUpdate=*/true, /*markersOnly=*/false,
                  EdgeDelta::Diffed);
    span.attr("degraded", degraded());
    span.attr("spec_judged", t.specJudged);
    span.attr("spec_hit", t.specHit);
    return t;
}

RinWidget::UpdateTiming RinWidget::setCutoff(double cutoff) {
    obs::ScopedSpan span("widget.set_cutoff");
    span.attr("cutoff", cutoff);
    UpdateTiming t;
    edgeTracesValid_ = false; // edge set changes
    const std::uint64_t preVersion = rin_.graph().version();
    {
        obs::ScopedSpan net("widget.network_update");
        t.edgeStats = rin_.setCutoff(cutoff);
        net.attr("edges_added", t.edgeStats.edgesAdded);
        net.attr("edges_removed", t.edgeStats.edgesRemoved);
        net.attr("edges_total", t.edgeStats.edgesTotal);
        t.networkUpdateMs = net.finishMs();
    }
    predictor_.observeCutoff(cutoff);

    if (adoptSpeculation(t, Prediction::Kind::Cutoff, 0, cutoff, preVersion)) {
        obs::ScopedSpan layoutSpan("widget.layout");
        layoutSpan.attr("speculated", true);
        t.layoutMs = layoutSpan.finishMs();
    } else {
        recomputeLayout(t);
    }
    if (options_.autoRecompute) recomputeMeasure(t);
    // Protein-view node positions are unchanged between cutoffs: the
    // client only updates edge elements (paper: ~100 ms vs ~200 ms).
    renderAndShip(t, /*fullClientUpdate=*/false, /*markersOnly=*/false,
                  EdgeDelta::Diffed);
    span.attr("degraded", degraded());
    span.attr("spec_judged", t.specJudged);
    span.attr("spec_hit", t.specHit);
    return t;
}

RinWidget::UpdateTiming RinWidget::setMeasure(Measure measure) {
    obs::ScopedSpan span("widget.set_measure");
    span.attr("measure", measureName(measure));
    UpdateTiming t;
    measure_ = measure;
    recomputeMeasure(t);
    // Only marker colors change; the edge set is untouched.
    renderAndShip(t, /*fullClientUpdate=*/true, /*markersOnly=*/true, EdgeDelta::None);
    span.attr("degraded", degraded());
    return t;
}

RinWidget::UpdateTiming RinWidget::refresh() {
    obs::ScopedSpan span("widget.refresh");
    UpdateTiming t;
    // A refresh is no predicted event: judge a pending speculation a miss,
    // drop the side slots, stop predicting until the sliders move again.
    if (spec_.valid) {
        t.specJudged = true;
        spec_.valid = false;
    }
    rin_.dropFrameSpeculation();
    predictor_.reset();
    {
        // Re-derive the current frame's RIN through the live diff: fresh
        // contact detection merged against the graph. On a consistent graph
        // the diff is empty, the version stays, and layout, measure and LOD
        // below hit their version-keyed caches.
        obs::ScopedSpan net("widget.network_update");
        t.edgeStats = rin_.setFrame(rin_.frame());
        net.attr("edges_added", t.edgeStats.edgesAdded);
        net.attr("edges_removed", t.edgeStats.edgesRemoved);
        net.attr("edges_total", t.edgeStats.edgesTotal);
        t.networkUpdateMs = net.finishMs();
    }
    redraw(t);
    span.attr("degraded", degraded());
    return t;
}

void RinWidget::redraw(UpdateTiming& t) {
    edgeTracesValid_ = false;
    recomputeLayout(t);
    recomputeMeasure(t);
    renderAndShip(t, /*fullClientUpdate=*/true, /*markersOnly=*/false, EdgeDelta::Full);
}

} // namespace rinkit::viz
