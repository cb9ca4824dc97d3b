#include "src/serve/load_generator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "src/obs/slo.hpp"
#include "src/obs/tail_sampler.hpp"
#include "src/serve/metrics.hpp"
#include "src/support/json.hpp"
#include "src/support/random.hpp"
#include "src/support/timer.hpp"

namespace rinkit::serve {

double rateAt(const LoadGenOptions& o, double tSec) {
    switch (o.schedule) {
    case LoadSchedule::Constant:
        return o.baseRatePerSec;
    case LoadSchedule::Diurnal: {
        // One full "day" over the run; amplitude clamped so lambda > 0.
        const double a = std::clamp(o.diurnalAmplitude, 0.0, 0.95);
        const double phase = 2.0 * 3.14159265358979323846 * tSec / std::max(o.durationSec, 1e-9);
        return o.baseRatePerSec * (1.0 + a * std::sin(phase));
    }
    case LoadSchedule::FlashCrowd: {
        const double begin = o.flashBeginFrac * o.durationSec;
        const double end = o.flashEndFrac * o.durationSec;
        const bool inFlash = tSec >= begin && tSec < end;
        return o.baseRatePerSec * (inFlash ? o.flashMultiplier : 1.0);
    }
    }
    return o.baseRatePerSec;
}

std::string LoadReport::toJson() const {
    JsonWriter w;
    w.beginObject();
    w.kv("offered", offered);
    w.kv("completed", completed);
    w.kv("rejected", rejected);
    w.kv("degraded", degraded);
    w.kv("deadline_missed", deadlineMissed);
    w.kv("coalesced", coalesced);
    w.kv("shed_rate", shedRate());
    w.kv("duration_s", durationSec);
    w.kv("achieved_per_s", achievedPerSec);
    w.kv("p50_ms", p50Ms);
    w.kv("p95_ms", p95Ms);
    w.kv("p99_ms", p99Ms);
    w.kv("max_ms", maxMs);
    w.kv("scale_ups", scaleUps);
    w.kv("scale_downs", scaleDowns);
    w.kv("replicas_final", replicasFinal);
    w.kv("replicas_max", replicasMax);
    w.kv("overloaded", overloaded);
    w.kv("recovered_at_s", recoveredAtSec);
    w.kv("end_window_p99_ms", endWindowP99Ms);
    w.kv("end_window_shed_rate", endWindowShedRate);
    w.kv("slo_attainment", sloAttainment);
    w.kv("slo_fast_burn_peak", sloFastBurnPeak);
    w.kv("slo_alert_fired", sloAlertFired);
    w.kv("slo_state_changes", sloStateChanges);
    w.kv("traces_retained", tracesRetained);
    w.endObject();
    return w.str();
}

namespace {

/// Next Poisson inter-arrival gap at the schedule's current rate.
double expGap(Rng& rng, double ratePerSec) {
    const double u = rng.real01();
    return -std::log(1.0 - u) / std::max(ratePerSec, 1e-9);
}

/// Folds one evaluate() result into the report's SLO trace: peak fast burn
/// and whether any objective left Healthy.
void observeSloTick(LoadReport& rep, const obs::SloEngine& engine,
                    const std::vector<obs::SloObjectiveStatus>& status) {
    rep.sloFastBurnPeak = std::max(rep.sloFastBurnPeak, engine.fastBurnRate());
    for (const auto& s : status)
        if (s.state != obs::SloState::Healthy) rep.sloAlertFired = true;
}

/// End-of-run attainment: the worst objective over its longest window.
void finishSloReport(LoadReport& rep, const std::vector<obs::SloObjectiveStatus>& status) {
    for (const auto& s : status) rep.sloAttainment = std::min(rep.sloAttainment, s.attainment);
}

SliderEvent sampleEvent(Rng& rng, const LoadGenOptions& o) {
    // Interaction mix of a slider-driven widget: mostly frame scrubbing,
    // occasional cutoff tuning and measure flips, rare refreshes.
    const double r = rng.real01();
    if (r < 0.5)
        return SliderEvent::setFrame(rng.pick(std::max<count>(1, o.frames)), o.deadlineMs);
    if (r < 0.7)
        return SliderEvent::setCutoff(4.0 + 0.1 * static_cast<double>(rng.integer(10)),
                                      o.deadlineMs);
    if (r < 0.9)
        return SliderEvent::setMeasure(
            rng.chance(0.5) ? viz::Measure::Degree : viz::Measure::Closeness, o.deadlineMs);
    return SliderEvent::refresh(o.deadlineMs);
}

// MonotoneDrag walk: per-event probabilities of a direction reversal, of
// switching to the other slider, and of an interleaved measure flip; the
// cutoff slider's tick grid.
constexpr double kDragReversalProb = 0.08;
constexpr double kDragSwitchProb = 0.05;
constexpr double kDragMeasureProb = 0.04;
constexpr double kDragCutoffMin = 4.0;
constexpr double kDragCutoffMax = 7.5;
constexpr double kDragCutoffStep = 0.1;
constexpr auto kDragMaxCutoffTick =
    static_cast<std::int64_t>((kDragCutoffMax - kDragCutoffMin) / kDragCutoffStep);

/// Per-session state of a MonotoneDrag walk.
struct DragState {
    bool onCutoff = false;     ///< which slider the user is dragging
    int dir = 1;               ///< current drag direction
    std::int64_t frame = 0;    ///< frame slider position
    std::int64_t cutoffTick = 0; ///< cutoff = min + step * tick
};

/// One tick of a direction-persistent slider drag: keep walking the
/// current slider by one step, reflect at the range bounds, occasionally
/// reverse, switch sliders, or flip the measure.
SliderEvent sampleDragEvent(Rng& rng, const LoadGenOptions& o, DragState& st) {
    if (rng.real01() < kDragMeasureProb)
        return SliderEvent::setMeasure(
            rng.chance(0.5) ? viz::Measure::Degree : viz::Measure::Closeness, o.deadlineMs);
    if (rng.real01() < kDragSwitchProb) st.onCutoff = !st.onCutoff;
    if (rng.real01() < kDragReversalProb) st.dir = -st.dir;
    if (st.onCutoff) {
        std::int64_t next = st.cutoffTick + st.dir;
        if (next < 0 || next > kDragMaxCutoffTick) {
            st.dir = -st.dir;
            next = st.cutoffTick + st.dir;
        }
        st.cutoffTick = std::clamp<std::int64_t>(next, 0, kDragMaxCutoffTick);
        return SliderEvent::setCutoff(
            kDragCutoffMin + kDragCutoffStep * static_cast<double>(st.cutoffTick),
            o.deadlineMs);
    }
    const auto maxFrame = static_cast<std::int64_t>(std::max<count>(1, o.frames)) - 1;
    std::int64_t next = st.frame + st.dir;
    if (next < 0 || next > maxFrame) {
        st.dir = -st.dir;
        next = st.frame + st.dir;
    }
    st.frame = std::clamp<std::int64_t>(next, 0, maxFrame);
    return SliderEvent::setFrame(static_cast<index>(st.frame), o.deadlineMs);
}

/// Freshly seeded drag states, one per session: staggered start positions
/// and directions so a fleet of draggers does not move in lockstep.
std::vector<DragState> initialDragStates(Rng& rng, const LoadGenOptions& o) {
    std::vector<DragState> drags(o.sessions);
    for (auto& st : drags) {
        st.onCutoff = rng.chance(0.5);
        st.dir = rng.chance(0.5) ? 1 : -1;
        st.frame = static_cast<std::int64_t>(rng.pick(std::max<count>(1, o.frames)));
        st.cutoffTick =
            static_cast<std::int64_t>(rng.pick(static_cast<count>(kDragMaxCutoffTick + 1)));
    }
    return drags;
}

} // namespace

LoadReport LoadGenerator::run(ServiceEndpoint& endpoint, const md::Trajectory& traj,
                              const std::function<void(double)>& onTick) {
    const LoadGenOptions& o = options_;
    Rng rng(o.seed);
    LoadReport rep;
    LatencyHistogram hist;

    const count coalescedBefore = endpoint.metrics().counter("coalesced");

    // SLO/tail-sampling hooks: both optional, both deltas so a reused
    // engine/sampler reports only what this run contributed.
    obs::SloEngine* slo = endpoint.sloEngine();
    obs::TailSampler* sampler = endpoint.tailSampler();
    const count sloChangesBefore = slo ? slo->stateChanges() : 0;
    const count retainedBefore = sampler ? sampler->stats().retainedTotal() : 0;

    std::vector<SessionId> sessions;
    sessions.reserve(o.sessions);
    for (count i = 0; i < o.sessions; ++i)
        sessions.push_back(endpoint.openSession(traj, widgetOptions_,
                                                "user-" + std::to_string(i)));
    std::vector<DragState> drags = initialDragStates(rng, o);

    // The current window of the windowed trace: what was harvested since
    // the previous tick.
    LatencyHistogram windowHist;
    count windowHarvested = 0;
    count windowShed = 0;
    bool overloadOpen = false;
    count replicasSeen = endpoint.replicaCount();

    std::vector<std::future<RequestOutcome>> pending;
    const auto harvestOne = [&](RequestOutcome outcome) {
        ++windowHarvested;
        if (outcome.accepted()) {
            ++rep.completed;
            if (outcome.degraded()) {
                ++rep.degraded;
                ++windowShed;
            }
            if (outcome.deadlineMissed) ++rep.deadlineMissed;
            const double latencyMs = outcome.queueMs + outcome.timing.totalMs();
            hist.record(latencyMs);
            windowHist.record(latencyMs);
        } else {
            ++rep.rejected;
            ++windowShed;
        }
    };
    const auto harvestReady = [&] {
        auto writeIt = pending.begin();
        for (auto& f : pending) {
            if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready)
                harvestOne(f.get());
            else
                *writeIt++ = std::move(f);
        }
        pending.erase(writeIt, pending.end());
    };
    // Judges a window that harvested at least one completion against the
    // deadline, then starts the next one.
    const auto closeWindow = [&](double tSec) {
        if (windowHist.samples() > 0) {
            rep.endWindowP99Ms = windowHist.percentile(99.0);
            rep.endWindowShedRate =
                static_cast<double>(windowShed) / static_cast<double>(windowHarvested);
            if (o.deadlineMs > 0.0 && rep.endWindowP99Ms > o.deadlineMs) {
                rep.overloaded = true;
                overloadOpen = true;
            } else if (overloadOpen) {
                rep.recoveredAtSec = tSec;
                overloadOpen = false;
            }
        }
        windowHist = LatencyHistogram{};
        windowHarvested = 0;
        windowShed = 0;
    };

    Timer clock;
    const auto nowSec = [&] { return clock.elapsedMs() / 1000.0; };
    // Open-loop pacing: sleep toward the scheduled arrival, but never
    // block on the service — when the generator falls behind wall-clock
    // (harvest hiccup), it catches up by submitting immediately, keeping
    // the offered schedule independent of service health.
    const auto sleepUntil = [&](double targetSec) {
        const double aheadMs = (targetSec - nowSec()) * 1000.0;
        if (aheadMs > 0.0)
            std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(aheadMs));
    };

    double nextArrival = expGap(rng, rateAt(o, 0.0));
    double nextTick = o.tickIntervalSec;
    while (true) {
        const bool arrivalsLeft = nextArrival < o.durationSec;
        if (!arrivalsLeft && nextTick >= o.durationSec) break;
        if (nextTick < nextArrival || !arrivalsLeft) {
            sleepUntil(nextTick);
            if (onTick) onTick(nextTick);
            if (slo) observeSloTick(rep, *slo, slo->evaluate());
            const count replicas = endpoint.replicaCount();
            if (replicas > replicasSeen) rep.scaleUps += replicas - replicasSeen;
            if (replicas < replicasSeen) rep.scaleDowns += replicasSeen - replicas;
            replicasSeen = replicas;
            rep.replicasMax = std::max(rep.replicasMax, replicas);
            harvestReady();
            closeWindow(nextTick);
            nextTick += o.tickIntervalSec;
            continue;
        }
        sleepUntil(nextArrival);
        const count s = static_cast<count>(rng.pick(sessions.size()));
        ++rep.offered;
        const SliderEvent event = o.eventModel == LoadEventModel::MonotoneDrag
                                      ? sampleDragEvent(rng, o, drags[s])
                                      : sampleEvent(rng, o);
        pending.push_back(endpoint.submit(sessions[s], event));
        nextArrival += expGap(rng, rateAt(o, nextArrival));
    }

    endpoint.drain();
    for (auto& f : pending) harvestOne(f.get());
    pending.clear();

    rep.durationSec = o.durationSec;
    rep.achievedPerSec = static_cast<double>(rep.offered) / std::max(o.durationSec, 1e-9);
    rep.coalesced = endpoint.metrics().counter("coalesced") - coalescedBefore;
    rep.p50Ms = hist.percentile(50.0);
    rep.p95Ms = hist.percentile(95.0);
    rep.p99Ms = hist.percentile(99.0);
    rep.maxMs = hist.maxMs();
    rep.replicasFinal = endpoint.replicaCount();
    rep.replicasMax = std::max(rep.replicasMax, rep.replicasFinal);

    if (slo) {
        // One final evaluate after the drain so the report's attainment
        // covers every harvested request.
        const auto status = slo->evaluate();
        observeSloTick(rep, *slo, status);
        finishSloReport(rep, status);
        rep.sloStateChanges = slo->stateChanges() - sloChangesBefore;
    }
    if (sampler) rep.tracesRetained = sampler->stats().retainedTotal() - retainedBefore;

    for (const SessionId id : sessions) endpoint.closeSession(id);
    return rep;
}

} // namespace rinkit::serve
