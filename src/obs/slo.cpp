#include "src/obs/slo.hpp"

#include <algorithm>
#include <cmath>

#include "src/obs/event_log.hpp"
#include "src/obs/trace.hpp"
#include "src/support/json.hpp"

namespace rinkit::obs {

const char* sloStateName(SloState state) {
    switch (state) {
    case SloState::Healthy: return "healthy";
    case SloState::SlowBurn: return "slow_burn";
    case SloState::FastBurn: return "fast_burn";
    }
    return "?";
}

const char* sloKindName(SloKind kind) {
    switch (kind) {
    case SloKind::DeadlineAttainment: return "deadline_attainment";
    case SloKind::ShedRate: return "shed_rate";
    case SloKind::StalenessBudget: return "staleness_budget";
    }
    return "?";
}

std::vector<SloObjectiveSpec> SloConfig::defaultObjectives() {
    return {
        {"latency", SloKind::DeadlineAttainment, 0.99, 0.0},
        {"shed", SloKind::ShedRate, 0.999, 0.0},
        {"staleness", SloKind::StalenessBudget, 0.95, 0.1},
    };
}

std::vector<BurnWindowSpec> SloConfig::defaultWindows() {
    return {
        // Page: a 14.4x burn sustained over 1 h and still live over 5 m
        // exhausts a 30-day budget in ~2 days — act now.
        {"fast", 300.0, 3600.0, 14.4, SloState::FastBurn},
        // Ticket: burning at exactly the sustainable pace over 3 days with
        // the last 6 h confirming the trend — fix it this week.
        {"slow", 21600.0, 259200.0, 1.0, SloState::SlowBurn},
    };
}

namespace {

/// Good/bad verdict of @p sample under one objective; returns false via
/// @p relevant when the sample does not count toward this objective at
/// all (e.g. a rejected request has no latency).
bool isBad(const SloObjectiveSpec& spec, const SloSample& s, bool& relevant) {
    relevant = true;
    switch (spec.kind) {
    case SloKind::DeadlineAttainment:
        if (s.rejected || s.deadlineMs <= 0.0) {
            relevant = false;
            return false;
        }
        return s.latencyMs > s.deadlineMs;
    case SloKind::ShedRate:
        return s.rejected;
    case SloKind::StalenessBudget:
        if (s.rejected) {
            relevant = false;
            return false;
        }
        return s.eps > spec.epsBudget;
    }
    relevant = false;
    return false;
}

} // namespace

SloEngine::SloEngine(SloConfig config) : config_(std::move(config)) {
    if (config_.objectives.empty()) config_.objectives = SloConfig::defaultObjectives();
    if (config_.windows.empty()) config_.windows = SloConfig::defaultWindows();
    config_.timeScale = std::max(config_.timeScale, 1e-9);
    config_.buckets = std::max<std::size_t>(8, config_.buckets);

    longestWindowSec_ = 0.0;
    for (const auto& w : config_.windows)
        longestWindowSec_ = std::max({longestWindowSec_, w.longSec, w.shortSec});
    longestWindowSec_ = std::max(longestWindowSec_ * config_.timeScale, 1e-6);
    bucketSec_ = longestWindowSec_ / static_cast<double>(config_.buckets);

    objectives_.reserve(config_.objectives.size());
    for (const auto& spec : config_.objectives) {
        ObjectiveWindow w;
        w.spec = spec;
        w.ring.assign(config_.buckets, Bucket{});
        objectives_.push_back(std::move(w));
    }
}

long long SloEngine::bucketOf(double tSec) const {
    return static_cast<long long>(std::floor(std::max(tSec, 0.0) / bucketSec_));
}

void SloEngine::advanceLocked(ObjectiveWindow& w, long long bucket) {
    if (bucket <= w.headBucket) return;
    const long long steps = bucket - w.headBucket;
    if (steps >= static_cast<long long>(w.ring.size())) {
        std::fill(w.ring.begin(), w.ring.end(), Bucket{});
    } else {
        for (long long s = 1; s <= steps; ++s)
            w.ring[(w.headBucket + s) % w.ring.size()] = Bucket{};
    }
    w.headBucket = bucket;
}

SloEngine::Bucket SloEngine::sumLocked(const ObjectiveWindow& w, double nowSec,
                                       double windowSec) const {
    // Sum the buckets whose start lies within [now - window, now]. The
    // ring is already advanced to now's bucket, so everything newer than
    // head is stale by construction.
    const long long head = w.headBucket;
    const long long span = std::min<long long>(
        static_cast<long long>(w.ring.size()),
        static_cast<long long>(std::ceil(windowSec / bucketSec_)) + 1);
    (void)nowSec;
    Bucket total;
    for (long long b = head - span + 1; b <= head; ++b) {
        if (b < 0) continue;
        const Bucket& bucket = w.ring[b % w.ring.size()];
        total.good += bucket.good;
        total.bad += bucket.bad;
    }
    return total;
}

void SloEngine::record(double nowSec, const SloSample& sample) {
    const long long bucket = bucketOf(nowSec);
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& w : objectives_) {
        bool relevant = true;
        const bool bad = isBad(w.spec, sample, relevant);
        if (!relevant) continue;
        advanceLocked(w, bucket);
        Bucket& slot = w.ring[w.headBucket % w.ring.size()];
        if (bad)
            ++slot.bad;
        else
            ++slot.good;
    }
}

void SloEngine::record(const SloSample& sample) {
    record(Tracer::global().nowUs() / 1e6, sample);
}

std::vector<SloObjectiveStatus> SloEngine::evaluate(double nowSec) {
    std::vector<SloObjectiveStatus> statuses;
    std::vector<std::string> transitions;
    {
        const long long bucket = bucketOf(nowSec);
        std::lock_guard<std::mutex> lock(mutex_);
        statuses.reserve(objectives_.size());
        for (auto& w : objectives_) {
            advanceLocked(w, bucket);

            SloObjectiveStatus status;
            status.name = w.spec.name;
            status.kind = w.spec.kind;
            status.target = w.spec.target;

            const double budget = std::max(1.0 - w.spec.target, 1e-9);
            const Bucket longest = sumLocked(w, nowSec, longestWindowSec_);
            status.good = longest.good;
            status.bad = longest.bad;
            const count totalLongest = longest.good + longest.bad;
            status.attainment =
                totalLongest == 0
                    ? 1.0
                    : static_cast<double>(longest.good) / static_cast<double>(totalLongest);

            SloState next = SloState::Healthy;
            for (const auto& spec : config_.windows) {
                const auto burnOver = [&](double windowSec) {
                    const Bucket b = sumLocked(w, nowSec, windowSec * config_.timeScale);
                    const count total = b.good + b.bad;
                    if (total == 0) return 0.0;
                    const double badFrac =
                        static_cast<double>(b.bad) / static_cast<double>(total);
                    return badFrac / budget;
                };
                SloWindowStatus ws;
                ws.window = spec.name;
                ws.shortBurn = burnOver(spec.shortSec);
                ws.longBurn = burnOver(spec.longSec);
                ws.threshold = spec.burnThreshold;
                ws.firing = ws.shortBurn > spec.burnThreshold &&
                            ws.longBurn > spec.burnThreshold;
                if (ws.firing && static_cast<int>(spec.severity) > static_cast<int>(next))
                    next = spec.severity;
                status.windows.push_back(std::move(ws));
            }

            if (next != w.state) {
                ++stateChanges_;
                transitions.push_back(w.spec.name + ": " + sloStateName(w.state) +
                                      " -> " + sloStateName(next));
                w.state = next;
            }
            status.state = w.state;
            statuses.push_back(std::move(status));
        }
        lastStatus_ = statuses;
    }
    // Log outside the engine lock: EventLog::log reads the tracer and
    // takes its own mutex.
    for (const auto& t : transitions) EventLog::global().log("slo_state_change", t);
    return statuses;
}

std::vector<SloObjectiveStatus> SloEngine::evaluate() {
    return evaluate(Tracer::global().nowUs() / 1e6);
}

std::vector<SloObjectiveStatus> SloEngine::status() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return lastStatus_;
}

double SloEngine::fastBurnRate() const {
    std::lock_guard<std::mutex> lock(mutex_);
    // The highest-severity window pair (the "fast"/page one) is the
    // autoscaler's signal: max of its short-window burn across objectives,
    // so any objective burning hot makes the fleet react.
    double burn = 0.0;
    int bestSeverity = -1;
    std::string best;
    for (const auto& spec : config_.windows) {
        if (static_cast<int>(spec.severity) > bestSeverity) {
            bestSeverity = static_cast<int>(spec.severity);
            best = spec.name;
        }
    }
    for (const auto& status : lastStatus_)
        for (const auto& ws : status.windows)
            if (ws.window == best) burn = std::max(burn, ws.shortBurn);
    return burn;
}

SloState SloEngine::worstState() const {
    std::lock_guard<std::mutex> lock(mutex_);
    SloState worst = SloState::Healthy;
    for (const auto& s : lastStatus_)
        if (static_cast<int>(s.state) > static_cast<int>(worst)) worst = s.state;
    return worst;
}

SloState SloEngine::stateOf(SloKind kind) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& s : lastStatus_)
        if (s.kind == kind) return s.state;
    return SloState::Healthy;
}

count SloEngine::stateChanges() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stateChanges_;
}

std::string SloEngine::toJson() const {
    std::vector<SloObjectiveStatus> statuses = status();
    JsonWriter w;
    w.beginObject();
    w.kv("time_scale", config_.timeScale);
    w.key("objectives").beginArray();
    for (const auto& s : statuses) {
        w.beginObject();
        w.kv("name", s.name);
        w.kv("kind", sloKindName(s.kind));
        w.kv("state", sloStateName(s.state));
        w.kv("target", s.target);
        w.kv("good", s.good);
        w.kv("bad", s.bad);
        w.kv("attainment", s.attainment);
        w.key("windows").beginArray();
        for (const auto& ws : s.windows) {
            w.beginObject();
            w.kv("window", ws.window);
            w.kv("short_burn", ws.shortBurn);
            w.kv("long_burn", ws.longBurn);
            w.kv("threshold", ws.threshold);
            w.kv("firing", ws.firing);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace rinkit::obs
