#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "src/md/trajectory.hpp"
#include "src/serve/service_endpoint.hpp"

namespace rinkit::serve {

/// Arrival-rate schedules for the open-loop generator. Open-loop means
/// arrivals follow the schedule regardless of how the service is coping —
/// unlike the closed-loop bench (bench_cloud_scaling), where clients wait
/// for responses and therefore self-throttle exactly when the service is
/// saturated. Overload behavior only shows open-loop.
enum class LoadSchedule {
    Constant,   ///< lambda(t) = base
    Diurnal,    ///< one sinusoidal day over the run: base * (1 + A sin)
    FlashCrowd, ///< base, multiplied by flashMultiplier inside a window
};

/// What one arrival looks like.
enum class LoadEventModel {
    /// The original memoryless interaction mix: random frames/cutoffs/
    /// measures/refreshes, independent draw per event.
    Mixed,
    /// A user dragging a slider: per-session direction-persistent walks —
    /// tick after tick of the same step on the same slider, reflecting at
    /// the range bounds, with occasional direction reversals, control
    /// switches, and measure flips. This is the workload the speculative
    /// prefetch path is built for (and what its benches drive).
    MonotoneDrag,
};

/// Load-generation configuration. Namespace-scope NSDMI defaults — the one
/// LoadGenerator constructor takes this struct.
struct LoadGenOptions {
    LoadSchedule schedule = LoadSchedule::Constant;
    LoadEventModel eventModel = LoadEventModel::Mixed;
    double baseRatePerSec = 50.0; ///< lambda of the Poisson arrival process
    double durationSec = 2.0;
    count sessions = 16; ///< sticky users, routing keys "user-<i>"
    /// Deadline stamped on every event (0 = none). Also the interactivity
    /// bar recovery is judged against in flash-crowd runs.
    double deadlineMs = 100.0;
    double diurnalAmplitude = 0.6;
    double flashMultiplier = 8.0;
    double flashBeginFrac = 0.4; ///< flash window, as fractions of the run
    double flashEndFrac = 0.6;
    double tickIntervalSec = 0.1; ///< autoscaler/observer cadence
    std::uint64_t seed = 7;
    count frames = 4; ///< frame-slider range for Frame events
};

/// lambda(t) of a schedule at @p tSec into the run (events per second).
double rateAt(const LoadGenOptions& options, double tSec);

/// What one load-generation run produced. shedRate() is the acceptance
/// metric: the fraction of offered events the service refused or served
/// degraded.
struct LoadReport {
    count offered = 0;   ///< events submitted (open-loop arrivals)
    count completed = 0; ///< futures resolved Ok or OkDegraded
    count rejected = 0;
    count degraded = 0;
    count deadlineMissed = 0;
    count coalesced = 0; ///< arrivals absorbed into a queued same-kind slot

    double durationSec = 0.0;
    double achievedPerSec = 0.0; ///< offered / duration

    /// Client-observed request latency (queue wait + full update), ms.
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    double maxMs = 0.0;

    // Autoscaling trace: replica-count changes observed at run()'s ticks
    // (zeros when the fleet stayed fixed).
    count scaleUps = 0;
    count scaleDowns = 0;
    count replicasFinal = 0;
    count replicasMax = 0;

    // Windowed trace: one window per tick, over the futures harvested since
    // the previous tick. A window's p99 is judged against deadlineMs.
    /// Some window's p99 blew the deadline.
    bool overloaded = false;
    /// Tick at which the windowed p99 first returned under the deadline
    /// after the last overload (-1 = never overloaded or never recovered).
    double recoveredAtSec = -1.0;
    /// p99 and shed rate of the last window that harvested a completion.
    double endWindowP99Ms = 0.0;
    double endWindowShedRate = 0.0;

    // SLO trace (defaults when the endpoint had no SLO engine).
    /// Worst per-objective attainment over the longest window at run end.
    double sloAttainment = 1.0;
    /// Peak SloEngine::fastBurnRate() seen at any tick.
    double sloFastBurnPeak = 0.0;
    /// Some tick's evaluate() left an objective in SlowBurn or FastBurn.
    bool sloAlertFired = false;
    /// SloEngine::stateChanges() over the run (alert-state transitions).
    count sloStateChanges = 0;
    /// TailSampler retention verdicts over the run.
    count tracesRetained = 0;

    double shedRate() const {
        return offered == 0
                   ? 0.0
                   : static_cast<double>(rejected + degraded) / static_cast<double>(offered);
    }

    std::string toJson() const;
};

/// Open-loop Poisson load generator: drives a live ServiceEndpoint (one
/// SessionService or a ReplicaSet) in wall-clock time with real sessions,
/// real futures and real migration. Fleet-scaling curves come from this
/// same path (bench_cluster_scaling), so they measure the serving code
/// itself.
class LoadGenerator {
public:
    using Options = LoadGenOptions;

    explicit LoadGenerator(Options options = {}) : options_(options) {}

    /// Widget options every session opened by run() uses — how a bench
    /// turns on speculation, the binary wire, or LOD scenes for the whole
    /// generated fleet. Defaults to the widget's defaults.
    void setWidgetOptions(const viz::RinWidget::Options& options) {
        widgetOptions_ = options;
    }

    /// Drives @p endpoint open-loop in real time. @p onTick (optional)
    /// fires every tickIntervalSec with the elapsed seconds — wire it to
    /// ReplicaSet::tick for live autoscaling. Each tick then harvests the
    /// resolved futures and closes one window of the report's windowed
    /// trace. Ends by draining the endpoint and harvesting every
    /// outstanding future. When the endpoint exposes an SLO engine it is
    /// evaluated each tick (burn peak / alert flags land in the report); a
    /// tail sampler's retention totals are harvested at the end.
    LoadReport run(ServiceEndpoint& endpoint, const md::Trajectory& traj,
                   const std::function<void(double)>& onTick = {});

    const Options& options() const { return options_; }

private:
    Options options_;
    viz::RinWidget::Options widgetOptions_{};
};

} // namespace rinkit::serve
