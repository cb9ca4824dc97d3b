#pragma once

#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/types.hpp"

namespace rinkit::obs {

/// What an objective counts as "bad". All three mirror the serving
/// layer's user-visible promises: requests finish inside the interactivity
/// deadline, the service does not refuse work, and degraded answers stay
/// inside the stated approximation budget (a degraded answer carries an
/// (epsilon, delta) bound; the "staleness" objective checks its epsilon).
enum class SloKind {
    DeadlineAttainment, ///< bad: accepted request finished past its deadline
    ShedRate,           ///< bad: request rejected by admission control
    StalenessBudget,    ///< bad: approx eps above budget
};

/// Severity a burn-rate window pair alerts at.
enum class SloState {
    Healthy = 0,
    SlowBurn = 1, ///< ticket-grade: budget burning at an unsustainable trend
    FastBurn = 2, ///< page-grade: budget burning fast enough to act now
};

const char* sloStateName(SloState state);
const char* sloKindName(SloKind kind);

/// One declarative objective: "target fraction of requests are good".
/// Error budget = 1 - target; burn rate over a window = (bad fraction in
/// the window) / (1 - target), so burn 1.0 spends the budget exactly at
/// the sustainable pace and burn 14.4 exhausts a 30-day budget in ~2 days.
struct SloObjectiveSpec {
    std::string name;                        ///< "latency", "shed", "staleness"
    SloKind kind = SloKind::DeadlineAttainment;
    double target = 0.99;                    ///< fraction of good requests
    double epsBudget = 0.1;                  ///< StalenessBudget: max served eps
};

/// One multi-window burn-rate alert rule (Google SRE style): fire only
/// when BOTH the long window (sustained trend) and the short window
/// (still happening right now) exceed the threshold, so a resolved spike
/// un-fires quickly while a slow leak still pages eventually.
struct BurnWindowSpec {
    std::string name;          ///< "fast", "slow" (exported as a label)
    double shortSec = 300.0;   ///< 5 m
    double longSec = 3600.0;   ///< 1 h
    double burnThreshold = 14.4;
    SloState severity = SloState::FastBurn;
};

/// SLO engine configuration. Real deployments keep timeScale = 1 and the
/// SRE-standard windows; benches and tests compress
/// them (timeScale = run seconds / 7200 maps the fast pair's 1 h long
/// window onto half the run) so multi-window alerting is exercised in
/// seconds instead of days.
struct SloConfig {
    std::vector<SloObjectiveSpec> objectives; ///< empty = defaultObjectives()
    std::vector<BurnWindowSpec> windows;      ///< empty = defaultWindows()
    double timeScale = 1.0;                   ///< multiplies every window
    std::size_t buckets = 256;                ///< sliding-window resolution

    /// The serving layer's three objectives: 99% of accepted requests
    /// inside their deadline, 99.9% of requests admitted, 95% of answers
    /// inside the approximation budget.
    static std::vector<SloObjectiveSpec> defaultObjectives();
    /// Fast 5m/1h pair at burn 14.4 (page) + slow 6h/3d pair at burn 1.0
    /// (ticket).
    static std::vector<BurnWindowSpec> defaultWindows();
};

/// One finished request, as the serving layer saw it. The engine derives
/// each objective's good/bad verdict from this one struct so callers feed
/// a single sample per request.
struct SloSample {
    bool rejected = false;       ///< admission control refused it
    double latencyMs = 0.0;      ///< queue wait + full update (accepted only)
    double deadlineMs = 0.0;     ///< 0 = no deadline (latency objective skips)
    double eps = 0.0;            ///< approximation error served (0 = exact)
};

/// Burn state of one window pair at the last evaluate().
struct SloWindowStatus {
    std::string window;     ///< spec name ("fast", "slow")
    double shortBurn = 0.0; ///< burn rate over the (scaled) short window
    double longBurn = 0.0;  ///< burn rate over the (scaled) long window
    double threshold = 0.0;
    bool firing = false;    ///< both windows above threshold
};

/// One objective's full state at the last evaluate().
struct SloObjectiveStatus {
    std::string name;
    SloKind kind = SloKind::DeadlineAttainment;
    SloState state = SloState::Healthy;
    double target = 0.0;
    count good = 0;          ///< over the longest (scaled) window
    count bad = 0;
    double attainment = 1.0; ///< good / (good + bad); 1.0 with no samples
    std::vector<SloWindowStatus> windows;
};

/// Sliding-window SLO engine with multi-window multi-burn-rate alerting.
///
/// record() files one request verdict per objective into time-bucketed
/// good/bad rings; evaluate() computes burn rates over every configured
/// window pair, updates each objective's alert state, and appends an
/// "slo_state_change" OpsEvent on every transition. Burn-rate state feeds
/// three consumers: the Prometheus exposition (sloToPrometheusText), the
/// ReplicaSet autoscaler (AutoscalerSignals::sloFastBurnRate — scale on
/// budget burn, not just queue depth), and the degradation ladder
/// (SessionService::setMinimumDegradeLevel while the latency budget
/// burns).
///
/// Time is explicit (seconds, caller-defined epoch): the serving path uses
/// the clock-free overloads, which read Tracer::nowUs()/1e6; tests pass
/// their own clock to step through windows deterministically. Thread-safe;
/// one engine is shared by every replica of a deployment.
class SloEngine {
public:
    explicit SloEngine(SloConfig config = {});

    /// Files one request verdict at @p nowSec.
    void record(double nowSec, const SloSample& sample);
    /// record() at the tracer clock (real-time serving path).
    void record(const SloSample& sample);

    /// Advances every window to @p nowSec, recomputes burn rates, updates
    /// alert states (logging transitions to EventLog::global()), and
    /// returns the per-objective status.
    std::vector<SloObjectiveStatus> evaluate(double nowSec);
    /// evaluate() at the tracer clock.
    std::vector<SloObjectiveStatus> evaluate();

    /// The last evaluate() result (empty before the first evaluate).
    std::vector<SloObjectiveStatus> status() const;

    /// Max short-window burn rate across objectives for the highest-
    /// severity window pair, as of the last evaluate(). The autoscaler
    /// signal.
    double fastBurnRate() const;

    /// Worst objective state as of the last evaluate().
    SloState worstState() const;

    /// State of the first objective of @p kind (Healthy when absent).
    SloState stateOf(SloKind kind) const;

    /// Monotonic count of alert-state transitions since construction.
    count stateChanges() const;

    /// JSON array of objective statuses — the /debug/slo response body.
    std::string toJson() const;

    /// @p realWindowSec scaled into this engine's time base.
    double scaledSec(double realWindowSec) const { return realWindowSec * config_.timeScale; }

    const SloConfig& config() const { return config_; }

private:
    struct Bucket {
        count good = 0;
        count bad = 0;
    };

    /// One objective's sliding window: a ring of time buckets spanning the
    /// longest configured window.
    struct ObjectiveWindow {
        SloObjectiveSpec spec;
        std::vector<Bucket> ring;
        long long headBucket = 0; ///< absolute bucket index of ring head
        SloState state = SloState::Healthy;
    };

    void advanceLocked(ObjectiveWindow& w, long long bucket);
    Bucket sumLocked(const ObjectiveWindow& w, double nowSec, double windowSec) const;
    long long bucketOf(double tSec) const;

    SloConfig config_;
    double bucketSec_ = 1.0;
    double longestWindowSec_ = 1.0;

    mutable std::mutex mutex_;
    std::vector<ObjectiveWindow> objectives_;
    std::vector<SloObjectiveStatus> lastStatus_;
    count stateChanges_ = 0;
};

} // namespace rinkit::obs
