#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/cloud/cluster.hpp"
#include "src/cloud/resources.hpp"
#include "src/serve/service_endpoint.hpp"
#include "src/serve/session_service.hpp"

namespace rinkit::serve {

/// Consistent-hash ring with virtual nodes: keys spread evenly, and adding
/// or removing one replica moves only ~K/N of K keys (the sessions whose
/// arc changed owner) — every other sticky session stays where it is.
/// Hashing is deterministic (own FNV-1a/splitmix finalizer, not
/// std::hash), so routing is reproducible across runs and platforms.
class ConsistentHashRing {
public:
    explicit ConsistentHashRing(count vnodesPerReplica = 64)
        : vnodes_(vnodesPerReplica) {}

    void add(count replicaId);
    void remove(count replicaId);

    /// Owner of @p key: first vnode clockwise of the key's hash. Throws
    /// std::logic_error on an empty ring.
    count route(std::string_view key) const;

    count replicas() const { return ring_.size() / vnodes_; }
    bool empty() const { return ring_.empty(); }

private:
    static std::uint64_t mix(std::uint64_t x);
    static std::uint64_t hashKey(std::string_view key);

    count vnodes_;
    std::map<std::uint64_t, count> ring_; ///< vnode position -> replica id
};

/// Autoscaler thresholds and hysteresis. Namespace-scope NSDMI defaults —
/// the one Autoscaler constructor takes this struct.
struct AutoscalerOptions {
    count minReplicas = 1;
    count maxReplicas = 8;
    /// Scale-up pressure when the mean queued backlog per replica exceeds
    /// this (the queue-depth high-water signal).
    double queueDepthHighWater = 8.0;
    /// Scale-up pressure when the shed rate (rejected + degraded over
    /// offered) exceeds this fraction.
    double shedRateHigh = 0.01;
    /// Scale-up pressure when the SLO engine's fast burn rate (max short-
    /// window burn of the page pair, see obs::SloEngine::fastBurnRate)
    /// exceeds this. Defaults to the page threshold, so the fleet scales
    /// on *budget burn* — before queues visibly back up — whenever an SLO
    /// engine feeds the signal. 0 disables it; deployments without an
    /// engine leave the signal at 0, which neither triggers scale-up nor
    /// blocks scale-down.
    double sloBurnRateHigh = 14.4;
    /// Scale-down eligibility: every signal below this fraction of its
    /// high threshold.
    double lowLoadFraction = 0.25;
    /// Hysteresis: consecutive hot ticks before scaling up, consecutive
    /// cold ticks before scaling down, and a dead time after any decision.
    /// Up reacts faster than down (shedding users costs more than an idle
    /// pod), and the cooldown gives a fresh replica time to take load
    /// before the signals are trusted again.
    count upAfterTicks = 2;
    count downAfterTicks = 5;
    count cooldownTicks = 3;
};

/// One tick's worth of the Prometheus signals the autoscaler watches.
struct AutoscalerSignals {
    double queueDepthPerReplica = 0.0;
    double shedRate = 0.0;
    /// SloEngine::fastBurnRate() at this tick (0 without an engine).
    double sloFastBurnRate = 0.0;
    count replicas = 1;
};

/// Pure threshold/hysteresis policy: evaluate() consumes one signal sample
/// per tick and says Hold/Up/Down. No clock, no cluster — the caller
/// (ReplicaSet::tick) applies the decision, which keeps the policy
/// unit-testable with synthetic square waves.
class Autoscaler {
public:
    enum class Decision { Hold, Up, Down };

    explicit Autoscaler(AutoscalerOptions options = {}) : options_(options) {}

    Decision evaluate(const AutoscalerSignals& signals);

    const AutoscalerOptions& options() const { return options_; }

private:
    AutoscalerOptions options_;
    count upStreak_ = 0;
    count downStreak_ = 0;
    count cooldown_ = 0;
};

/// ReplicaSet configuration. Namespace-scope NSDMI defaults — the one
/// ReplicaSet constructor takes this struct.
struct ReplicaSetOptions {
    count initialReplicas = 1;
    count vnodesPerReplica = 64;
    /// Per-replica service configuration. Its budget is the budget of ONE
    /// pod (each replica gets its own kPaperInstanceLimit-sized share);
    /// the ReplicaSet stamps replicaLabel per instance. Fleet capacity is
    /// bounded by cluster scheduling, not by duplicating one budget.
    SessionServiceOptions serviceTemplate{};
    AutoscalerOptions autoscaler{};
    /// Optional cluster binding: when set, every replica is backed by a
    /// pod of @p deploymentName in @p clusterNamespace — scale-up that the
    /// cluster cannot schedule is refused, and scale-down terminates the
    /// pod. The cluster must outlive the ReplicaSet. nullptr runs the
    /// replicas unbound (tests, benches without a cluster model).
    cloud::Cluster* cluster = nullptr;
    std::string clusterNamespace = "rinkit-serve";
    std::string deploymentName = "rin-serve";
};

/// N SessionService replicas behind one ServiceEndpoint: sessions are
/// sharded by consistent-hashing their routing key (sticky sessions), the
/// fleet scales up/down with loss-free session migration, and metrics
/// aggregate across replicas (including retired ones, so counters never
/// regress).
///
/// Scale-down migration protocol (scaleDown):
///  1. the victim replica's vnodes leave the ring — no new session routes
///     to it, and the routing lock blocks concurrent submits;
///  2. each of its sessions is quiesced (in-flight request completes) and
///     extracted with its *unexecuted* pending queue — every queued future
///     survives, accounted as handed_off on the source and adopted on the
///     target, so per-replica and global invariants both hold;
///  3. the target replica adopts the widget (caches and wire encoder
///     travel along) and forces a wire keyframe, so the client's
///     next frame is a self-contained resync;
///  4. the victim's registry is merged into the retained aggregate, then
///     the replica (and its cluster pod, when bound) is torn down.
class ReplicaSet : public ServiceEndpoint {
public:
    using Options = ReplicaSetOptions;

    explicit ReplicaSet(Options options = {});
    ~ReplicaSet() override;

    ReplicaSet(const ReplicaSet&) = delete;
    ReplicaSet& operator=(const ReplicaSet&) = delete;

    // -- ServiceEndpoint ----------------------------------------------------

    SessionId openSession(const md::Trajectory& traj,
                          viz::RinWidget::Options widgetOptions = {},
                          std::string_view routingKey = {}) override;
    void closeSession(SessionId id) override;
    std::future<RequestOutcome> submit(SessionId id, SliderEvent event) override;
    void drain() override;
    void shutdown() override;
    count activeSessions() const override;

    /// Aggregate over live and retired replicas: counters summed,
    /// histograms merged at raw-bin granularity. Unlabeled, so dashboards
    /// written against a single instance read it unchanged.
    MetricsSnapshot metrics() const override;

    /// One labeled snapshot per live replica.
    std::vector<MetricsSnapshot> perReplicaMetrics() const override;

    count replicaCount() const override;

    obs::SloEngine* sloEngine() const override { return options_.serviceTemplate.slo.get(); }
    obs::TailSampler* tailSampler() const override {
        return options_.serviceTemplate.tailSampler.get();
    }
    std::string sloJson() const override;

    /// True while the SLO controller is flooring every replica at Approx
    /// (latency budget fast-burning; see tick()).
    bool sloDegradeActive() const;

    // -- scaling ------------------------------------------------------------

    /// Adds one replica (backed by a cluster pod when bound) and rebalances:
    /// sessions whose ring owner changed migrate to it. Returns false at
    /// maxReplicas or when the cluster cannot schedule the pod.
    bool scaleUp();

    /// Retires the newest replica after migrating every one of its
    /// sessions (loss-free; see class comment). Returns false at
    /// minReplicas.
    bool scaleDown();

    /// One autoscaler step: evaluates the SLO engine (when configured),
    /// samples the fleet signals (queue depth per replica, cumulative p99
    /// total latency, shed rate since the last tick, SLO fast burn rate),
    /// evaluates the policy, applies Up/Down, and returns the decision.
    /// Also drives the SLO → ladder coupling: the latency objective
    /// entering FastBurn floors every replica at DegradeLevel::Approx
    /// (logged as "slo_degrade_enter"); returning to Healthy lifts the
    /// floor ("slo_degrade_exit"). Call at a fixed cadence from one
    /// thread.
    Autoscaler::Decision tick();

    /// Which replica currently owns @p routingKey (diagnostics, tests).
    count routeOf(std::string_view routingKey) const;

    /// Replica owning session @p id (throws for unknown ids).
    count sessionReplica(SessionId id) const;

    /// The session's widget (nullptr for unknown ids); same safety rules
    /// as SessionService::sessionWidget.
    const viz::RinWidget* sessionWidget(SessionId id) const;

    const Options& options() const { return options_; }

private:
    struct Replica {
        count id = 0;
        std::unique_ptr<SessionService> service;
    };

    /// A global session id's current home.
    struct Route {
        count replicaId = 0;
        SessionId localId = 0;
        std::string key;
    };

    /// Appends a new replica (no ring/rebalance side effects). Caller
    /// holds mutex_.
    Replica& addReplicaLocked();

    /// Moves one routed session between replicas. Caller holds mutex_ (so
    /// no submit can race the extract).
    void migrateLocked(SessionId globalId, Route& route, count targetReplicaId);

    SessionService& serviceOf(count replicaId);
    const SessionService& serviceOf(count replicaId) const;

    Options options_;
    mutable std::mutex mutex_;
    std::vector<Replica> replicas_;
    ConsistentHashRing ring_;
    std::map<SessionId, Route> routes_;
    SessionId nextId_ = 1;
    count nextReplicaId_ = 0;
    /// Counters/histograms of retired replicas, folded in at scale-down so
    /// the aggregate view never loses history.
    MetricsRegistry retired_;
    Autoscaler autoscaler_;
    /// Shed-rate window state: counter values at the previous tick.
    count lastOffered_ = 0;
    count lastShed_ = 0;
    /// SLO → ladder coupling state: true while every replica is floored at
    /// Approx because the latency budget fast-burns.
    bool sloDegradeActive_ = false;
};

} // namespace rinkit::serve
