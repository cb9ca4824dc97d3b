#include "src/serve/replica_set.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/obs/event_log.hpp"

namespace rinkit::serve {

// -- ConsistentHashRing -------------------------------------------------------

std::uint64_t ConsistentHashRing::mix(std::uint64_t x) {
    // splitmix64 finalizer: cheap, well-distributed, stable everywhere.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t ConsistentHashRing::hashKey(std::string_view key) {
    // FNV-1a over the bytes, then one mixing round to de-correlate short
    // keys ("user-1" vs "user-2") around the ring.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : key) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return mix(h);
}

void ConsistentHashRing::add(count replicaId) {
    for (count v = 0; v < vnodes_; ++v)
        ring_.emplace(mix(replicaId * 0x10001ULL + (v << 17)), replicaId);
}

void ConsistentHashRing::remove(count replicaId) {
    for (auto it = ring_.begin(); it != ring_.end();) {
        if (it->second == replicaId)
            it = ring_.erase(it);
        else
            ++it;
    }
}

count ConsistentHashRing::route(std::string_view key) const {
    if (ring_.empty()) throw std::logic_error("ConsistentHashRing: no replicas");
    auto it = ring_.upper_bound(hashKey(key));
    if (it == ring_.end()) it = ring_.begin(); // wrap around
    return it->second;
}

// -- Autoscaler ---------------------------------------------------------------

Autoscaler::Decision Autoscaler::evaluate(const AutoscalerSignals& s) {
    const AutoscalerOptions& o = options_;
    const bool hot =
        s.queueDepthPerReplica > o.queueDepthHighWater ||
        s.shedRate > o.shedRateHigh ||
        (o.sloBurnRateHigh > 0.0 && s.sloFastBurnRate > o.sloBurnRateHigh);
    const bool cold =
        s.queueDepthPerReplica < o.lowLoadFraction * o.queueDepthHighWater &&
        s.shedRate < o.lowLoadFraction * o.shedRateHigh &&
        (o.sloBurnRateHigh <= 0.0 ||
         s.sloFastBurnRate < o.lowLoadFraction * o.sloBurnRateHigh);

    if (hot) {
        ++upStreak_;
        downStreak_ = 0;
    } else if (cold) {
        ++downStreak_;
        upStreak_ = 0;
    } else {
        upStreak_ = 0;
        downStreak_ = 0;
    }

    if (cooldown_ > 0) {
        --cooldown_;
        return Decision::Hold;
    }
    if (hot && upStreak_ >= options_.upAfterTicks && s.replicas < o.maxReplicas) {
        upStreak_ = 0;
        cooldown_ = o.cooldownTicks;
        return Decision::Up;
    }
    if (cold && downStreak_ >= options_.downAfterTicks && s.replicas > o.minReplicas) {
        downStreak_ = 0;
        cooldown_ = o.cooldownTicks;
        return Decision::Down;
    }
    return Decision::Hold;
}

// -- ReplicaSet ---------------------------------------------------------------

ReplicaSet::ReplicaSet(Options options)
    : options_(std::move(options)), ring_(options_.vnodesPerReplica),
      autoscaler_(options_.autoscaler) {
    options_.initialReplicas = std::clamp(options_.initialReplicas,
                                          options_.autoscaler.minReplicas,
                                          options_.autoscaler.maxReplicas);
    if (options_.cluster) {
        // One deployment backs the fleet: pod template sized to the
        // per-replica budget; scale-up/down below goes through the same
        // deployment so Deployment::replicas mirrors replicaCount().
        if (!options_.cluster->hasNamespace(options_.clusterNamespace))
            options_.cluster->createNamespace(options_.clusterNamespace);
        cloud::Deployment dep;
        dep.name = options_.deploymentName;
        dep.podTemplate.name = options_.deploymentName;
        dep.podTemplate.request = options_.serviceTemplate.budget;
        dep.replicas = options_.initialReplicas;
        options_.cluster->apply(options_.clusterNamespace, dep);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    for (count r = 0; r < options_.initialReplicas; ++r) addReplicaLocked();
}

ReplicaSet::~ReplicaSet() { shutdown(); }

ReplicaSet::Replica& ReplicaSet::addReplicaLocked() {
    Replica replica;
    replica.id = nextReplicaId_++;
    SessionServiceOptions opts = options_.serviceTemplate;
    opts.replicaLabel = std::to_string(replica.id);
    replica.service = std::make_unique<SessionService>(opts);
    // A replica born while the fleet sheds inherits the floor — otherwise
    // the fresh pod would serve exact answers while its siblings degrade.
    if (sloDegradeActive_)
        replica.service->setMinimumDegradeLevel(viz::DegradeLevel::Approx);
    ring_.add(replica.id);
    replicas_.push_back(std::move(replica));
    return replicas_.back();
}

SessionService& ReplicaSet::serviceOf(count replicaId) {
    for (auto& r : replicas_)
        if (r.id == replicaId) return *r.service;
    throw std::logic_error("ReplicaSet: no replica " + std::to_string(replicaId));
}

const SessionService& ReplicaSet::serviceOf(count replicaId) const {
    return const_cast<ReplicaSet*>(this)->serviceOf(replicaId);
}

SessionId ReplicaSet::openSession(const md::Trajectory& traj,
                                  viz::RinWidget::Options widgetOptions,
                                  std::string_view routingKey) {
    std::lock_guard<std::mutex> lock(mutex_);
    const SessionId id = nextId_++;
    Route route;
    route.key = routingKey.empty() ? "session-" + std::to_string(id)
                                   : std::string(routingKey);
    route.replicaId = ring_.route(route.key);
    route.localId = serviceOf(route.replicaId).openSession(traj, widgetOptions);
    routes_.emplace(id, std::move(route));
    return id;
}

void ReplicaSet::closeSession(SessionId id) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = routes_.find(id);
    if (it == routes_.end()) return;
    serviceOf(it->second.replicaId).closeSession(it->second.localId);
    routes_.erase(it);
}

std::future<RequestOutcome> ReplicaSet::submit(SessionId id, SliderEvent event) {
    // The routing lock spans the replica submit: enqueueing is cheap, and
    // holding it guarantees no submit can race a migration's extract.
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = routes_.find(id);
    if (it == routes_.end())
        throw std::invalid_argument("ReplicaSet: unknown session id " + std::to_string(id));
    return serviceOf(it->second.replicaId).submit(it->second.localId, event);
}

void ReplicaSet::drain() {
    // Collect the services under the lock, block on them outside it:
    // drain waits on worker progress, which never needs the routing lock.
    std::vector<SessionService*> services;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto& r : replicas_) services.push_back(r.service.get());
    }
    for (auto* s : services) s->drain();
}

void ReplicaSet::shutdown() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& r : replicas_) r.service->shutdown();
    routes_.clear();
}

count ReplicaSet::activeSessions() const {
    std::lock_guard<std::mutex> lock(mutex_);
    count n = 0;
    for (const auto& r : replicas_) n += r.service->activeSessions();
    return n;
}

MetricsSnapshot ReplicaSet::metrics() const {
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsRegistry aggregate;
    // The fold-in loses the per-replica exemplar filters, so re-arm the
    // aggregate with the shared sampler: fleet-level exemplars obey the
    // same "retained traces only" rule the replicas do.
    if (options_.serviceTemplate.tailSampler) {
        aggregate.setExemplarFilter(
            [sampler = options_.serviceTemplate.tailSampler](std::uint64_t traceId) {
                return sampler->isRetained(traceId);
            });
    }
    aggregate.merge(retired_);
    for (const auto& r : replicas_) aggregate.merge(r.service->registry());
    return aggregate.snapshot();
}

std::string ReplicaSet::sloJson() const {
    obs::SloEngine* engine = options_.serviceTemplate.slo.get();
    return engine ? engine->toJson() : std::string("{\"objectives\":[]}");
}

bool ReplicaSet::sloDegradeActive() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sloDegradeActive_;
}

std::vector<MetricsSnapshot> ReplicaSet::perReplicaMetrics() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<MetricsSnapshot> snaps;
    snaps.reserve(replicas_.size());
    for (const auto& r : replicas_) snaps.push_back(r.service->metrics());
    return snaps;
}

count ReplicaSet::replicaCount() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return replicas_.size();
}

count ReplicaSet::routeOf(std::string_view routingKey) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ring_.route(routingKey);
}

count ReplicaSet::sessionReplica(SessionId id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = routes_.find(id);
    if (it == routes_.end())
        throw std::invalid_argument("ReplicaSet: unknown session id " + std::to_string(id));
    return it->second.replicaId;
}

const viz::RinWidget* ReplicaSet::sessionWidget(SessionId id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = routes_.find(id);
    if (it == routes_.end()) return nullptr;
    return serviceOf(it->second.replicaId).sessionWidget(it->second.localId);
}

void ReplicaSet::migrateLocked(SessionId globalId, Route& route,
                               count targetReplicaId) {
    SessionService::DetachedSession detached =
        serviceOf(route.replicaId).extractSession(route.localId);
    obs::EventLog::global().log("session_migrated",
                                "session " + std::to_string(globalId) + ": replica " +
                                    std::to_string(route.replicaId) + " -> " +
                                    std::to_string(targetReplicaId));
    route.localId = serviceOf(targetReplicaId).adoptSession(std::move(detached));
    route.replicaId = targetReplicaId;
}

bool ReplicaSet::scaleUp() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (replicas_.size() >= options_.autoscaler.maxReplicas) return false;

    if (options_.cluster) {
        const auto started = options_.cluster->scaleDeployment(
            options_.clusterNamespace, options_.deploymentName, replicas_.size() + 1);
        // Refuse the scale-up if the cluster could not place the pod (it
        // came up Pending): roll the deployment back so desired state
        // matches the fleet.
        bool running = false;
        for (const auto& pod : options_.cluster->pods(options_.clusterNamespace))
            if (!started.empty() && pod.uid == started.front())
                running = pod.phase == cloud::PodPhase::Running;
        if (!running) {
            options_.cluster->scaleDeployment(options_.clusterNamespace,
                                              options_.deploymentName, replicas_.size());
            return false;
        }
    }

    const count newId = addReplicaLocked().id;
    obs::EventLog::global().log("autoscale_up",
                                "replicas " + std::to_string(replicas_.size() - 1) + " -> " +
                                    std::to_string(replicas_.size()) + " (new replica " +
                                    std::to_string(newId) + ")");
    // Rebalance: only sessions whose arc the new replica's vnodes took
    // over move (~K/N of them); everyone else stays sticky.
    for (auto& [id, route] : routes_) {
        const count owner = ring_.route(route.key);
        if (owner != route.replicaId) migrateLocked(id, route, owner);
    }
    return true;
}

bool ReplicaSet::scaleDown() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (replicas_.size() <= options_.autoscaler.minReplicas || replicas_.size() <= 1)
        return false;

    Replica victim = std::move(replicas_.back());
    replicas_.pop_back();
    ring_.remove(victim.id);
    obs::EventLog::global().log("autoscale_down",
                                "replicas " + std::to_string(replicas_.size() + 1) + " -> " +
                                    std::to_string(replicas_.size()) + " (retiring replica " +
                                    std::to_string(victim.id) + ")");

    // Drain the victim's sessions onto their new ring owners. Extract
    // waits out in-flight work per session, adopt re-enqueues the pending
    // queue and forces a wire keyframe — no queued future is dropped.
    for (auto& [id, route] : routes_) {
        if (route.replicaId != victim.id) continue;
        SessionService::DetachedSession detached =
            victim.service->extractSession(route.localId);
        const count owner = ring_.route(route.key);
        obs::EventLog::global().log("session_migrated",
                                    "session " + std::to_string(id) + ": replica " +
                                        std::to_string(victim.id) + " -> " +
                                        std::to_string(owner));
        route.localId = serviceOf(owner).adoptSession(std::move(detached));
        route.replicaId = owner;
    }

    // Keep the victim's history: its counters and histograms fold into the
    // retained registry, so the aggregate view never regresses.
    retired_.merge(victim.service->registry());
    victim.service.reset();

    if (options_.cluster)
        options_.cluster->scaleDeployment(options_.clusterNamespace,
                                          options_.deploymentName, replicas_.size());
    return true;
}

Autoscaler::Decision ReplicaSet::tick() {
    // Advance the SLO engine first (its own lock; may log state-change
    // events) so this tick's burn rates reflect everything recorded so far.
    obs::SloEngine* engine = options_.serviceTemplate.slo.get();
    if (engine) engine->evaluate();

    AutoscalerSignals signals;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        MetricsRegistry aggregate;
        aggregate.merge(retired_);
        for (const auto& r : replicas_) aggregate.merge(r.service->registry());
        const MetricsSnapshot snap = aggregate.snapshot();

        signals.replicas = replicas_.size();
        signals.queueDepthPerReplica =
            static_cast<double>(snap.queueDepth) / static_cast<double>(replicas_.size());
        // Shed rate over the window since the previous tick (counter
        // deltas), not cumulative — the autoscaler must see recovery.
        const count offered = snap.counter("submitted") + snap.counter("adopted");
        const count shed = snap.counter("rejected") + snap.counter("shed_degraded") +
                           snap.counter("deadline_missed");
        const count dOffered = offered - lastOffered_;
        const count dShed = shed - lastShed_;
        lastOffered_ = offered;
        lastShed_ = shed;
        if (dOffered > 0)
            signals.shedRate = static_cast<double>(dShed) / static_cast<double>(dOffered);

        if (engine) {
            signals.sloFastBurnRate = engine->fastBurnRate();

            // SLO → ladder coupling with hysteresis: enter the Approx
            // floor on FastBurn, leave it only on full recovery (Healthy),
            // so a burn oscillating around the threshold does not flap the
            // served quality.
            const obs::SloState latency = engine->stateOf(obs::SloKind::DeadlineAttainment);
            if (!sloDegradeActive_ && latency == obs::SloState::FastBurn) {
                sloDegradeActive_ = true;
                for (auto& r : replicas_)
                    r.service->setMinimumDegradeLevel(viz::DegradeLevel::Approx);
                obs::EventLog::global().log(
                    "slo_degrade_enter", "latency budget fast-burning: floor=approx");
            } else if (sloDegradeActive_ && latency == obs::SloState::Healthy) {
                sloDegradeActive_ = false;
                for (auto& r : replicas_)
                    r.service->setMinimumDegradeLevel(viz::DegradeLevel::None);
                obs::EventLog::global().log("slo_degrade_exit",
                                            "latency budget recovered: floor=none");
            }
        }
    }

    const Autoscaler::Decision decision = autoscaler_.evaluate(signals);
    if (decision == Autoscaler::Decision::Up) {
        if (!scaleUp()) return Autoscaler::Decision::Hold;
    } else if (decision == Autoscaler::Decision::Down) {
        if (!scaleDown()) return Autoscaler::Decision::Hold;
    }
    return decision;
}

} // namespace rinkit::serve
