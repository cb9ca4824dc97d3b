#pragma once

#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include <atomic>

#include "src/cloud/resources.hpp"
#include "src/md/trajectory.hpp"
#include "src/obs/slo.hpp"
#include "src/obs/tail_sampler.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/metrics.hpp"
#include "src/serve/service_endpoint.hpp"
#include "src/support/thread_pool.hpp"
#include "src/support/timer.hpp"
#include "src/viz/widget.hpp"

namespace rinkit::serve {

namespace detail {

/// One queued slot of a session's FIFO: the (possibly coalesced) event,
/// every waiter it will resolve, and the trace identity minted at submit.
/// Namespace-scope (not nested in SessionService) so a DetachedSession can
/// carry the pending queue across replicas during migration.
struct QueuedRequest {
    SliderEvent event;
    std::vector<std::promise<RequestOutcome>> waiters;
    Timer queued;        ///< started at submit of the *oldest* waiter
    count absorbed = 0;  ///< events coalesced into this slot
    /// Trace identity minted at submit; the worker adopts it so the
    /// request's spans — enqueue on the service thread, queue wait,
    /// execution on a worker — form one connected tree.
    obs::SpanContext traceCtx;
    double submittedUs = 0.0; ///< tracer clock at submit (root span start)
};

} // namespace detail

/// SessionService configuration. Namespace-scope (not nested) so its
/// defaults can serve the service's single defaulted-Options constructor.
struct SessionServiceOptions {
    /// Resource budget the service admits work against. This is the budget
    /// of *this instance* (one pod): in a replicated deployment every
    /// replica gets its own per-pod share (ReplicaSet fills this in from
    /// its pod budget) — the fleet budget is split across pods, never
    /// duplicated into each one. Defaults to the paper's per-instance
    /// cgroup limit (10 vCores / 16 GB).
    cloud::Resources budget = cloud::kPaperInstanceLimit;
    /// Worker threads. 0 = one per budgeted vCore (budget.cpuMillis/1000).
    count workers = 0;
    /// Admission bound per session. A queued update pins roughly a
    /// figure-sized buffer, so 0 derives the bound from the memory budget
    /// (one slot per 2 GB, minimum 2).
    count maxQueuedPerSession = 0;
    /// Queue depth at dequeue beyond which a request is shed to the first
    /// degradation rung: approximate measures *with a stated error bound*
    /// (DegradeLevel::Approx) and a layout polish only.
    count degradeQueueDepth = 2;
    /// Queue depth beyond which overload escalates to the last rung:
    /// results for an older graph version may be served
    /// (DegradeLevel::Stale). Bounded-error-but-current degrades before
    /// exact-but-outdated.
    count staleQueueDepth = 6;
    /// Deadline applied when an event carries none. 0 = no deadline.
    double defaultDeadlineMs = 0.0;
    /// Replica identity stamped on every metrics snapshot and span this
    /// instance emits ("0", "1", ... in a ReplicaSet). Empty for a
    /// standalone single-instance service.
    std::string replicaLabel;
    /// Deployment-shared SLO engine this instance records one verdict per
    /// request into (rejections included). A ReplicaSet passes the same
    /// engine to every replica so burn rates are fleet-wide. nullptr = off.
    std::shared_ptr<obs::SloEngine> slo;
    /// Deployment-shared tail sampler. When set, every request root is
    /// minted with Sample::Force (tail retention replaces head sampling
    /// for request roots), opened at submit, and finished with its outcome
    /// at completion; retained trace ids feed the exemplar filter.
    std::shared_ptr<obs::TailSampler> tailSampler;
};

/// Concurrent multi-session RIN service: runs many RinWidget sessions on a
/// fixed worker pool behind a single request API.
///
/// Scheduling model (per session):
///  - requests form a FIFO queue; at most one executes at a time, so each
///    session observes its slider events in order;
///  - **latest-wins coalescing**: a newly submitted event replaces a queued
///    event of the same Kind in place — the stale value is never computed,
///    the superseded waiters are resolved with the newer event's outcome,
///    and the queue does not grow;
///  - **admission control**: once a session's queue is at its budgeted
///    bound (and nothing can be coalesced), submit resolves immediately
///    with Rejected instead of queueing unboundedly;
///  - **graceful degradation ladder**: a request dequeued behind more than
///    degradeQueueDepth waiters (or one whose queue wait blew its deadline)
///    executes with DegradeLevel::Approx — sampled measures with a stated
///    (epsilon, delta) and a warm-start-only layout; beyond staleQueueDepth
///    it escalates to DegradeLevel::Stale, which additionally allows
///    serving results for an older graph version. Approximate-with-bounds
///    ranks above stale: a bounded error on the current frame beats an
///    unbounded one from the past. The tier actually served is visible in
///    RequestOutcome::timing.measureTier and the measure_tier_* counters.
///
/// Sessions are independent: the pool interleaves them, and a session
/// re-enqueues itself after each request so a chatty client cannot starve
/// the others. All slider submissions and metric reads are thread-safe.
class SessionService : public ServiceEndpoint {
public:
    using Options = SessionServiceOptions;

    /// Everything a live session is, detached for migration: the widget
    /// (whose caches and wire encoder/decoder state travel with it), the
    /// applied-event log, and the pending request queue — every queued
    /// future is handed off, none dropped.
    /// Produced by extractSession on the draining replica, consumed by
    /// adoptSession on the target.
    class DetachedSession {
    public:
        DetachedSession() = default;
        DetachedSession(DetachedSession&&) = default;
        DetachedSession& operator=(DetachedSession&&) = default;

        count queuedRequests() const { return queue_.size(); }
        bool valid() const { return widget_ != nullptr; }

    private:
        friend class SessionService;
        std::unique_ptr<viz::RinWidget> widget_;
        std::vector<SliderEvent::Kind> appliedLog_;
        std::deque<detail::QueuedRequest> queue_;
    };

    explicit SessionService(Options options = {});
    ~SessionService() override;

    SessionService(const SessionService&) = delete;
    SessionService& operator=(const SessionService&) = delete;

    /// Opens a widget session over @p traj (which must outlive the
    /// session). The routing key is unused by the single-instance service
    /// (there is nothing to shard); see ServiceEndpoint.
    SessionId openSession(const md::Trajectory& traj,
                          viz::RinWidget::Options widgetOptions = {},
                          std::string_view routingKey = {}) override;

    /// Closes a session: queued requests resolve Rejected, an in-flight
    /// request finishes normally. Unknown ids are ignored.
    void closeSession(SessionId id) override;

    /// Submits one slider event; never blocks on computation. The returned
    /// future always resolves (Ok, OkDegraded, or Rejected). Throws
    /// std::invalid_argument for an unknown session id.
    std::future<RequestOutcome> submit(SessionId id, SliderEvent event) override;

    /// Blocks until every queue is empty and no request is in flight.
    void drain() override;

    /// Blocks until no session has a speculative task queued or running
    /// (tests/benches: make the background pipeline deterministic before
    /// reading counters or submitting a paced event).
    void waitSpeculationIdle();

    /// Rejects every queued request and closes every session (the worker
    /// pool stays up, so new sessions can be opened afterwards).
    void shutdown() override;

    count activeSessions() const override;

    // -- migration (replica scale-down) -----------------------------------

    /// Quiesces and removes one session for hand-off: stops scheduling its
    /// queue, waits for the in-flight request (if any) to finish, then
    /// returns the widget plus the *unexecuted* pending queue. Every
    /// pending slot ticks the "handed_off" counter, keeping this replica's
    /// accounting invariant
    ///   submitted + adopted == completed + coalesced + rejected + handed_off
    /// intact. The caller must guarantee no concurrent submit() for this
    /// id (the ReplicaSet's routing lock does). Throws
    /// std::invalid_argument for an unknown id.
    DetachedSession extractSession(SessionId id);

    /// Adopts a migrated session under a fresh id: the pending queue is
    /// re-enqueued (each slot ticks "adopted") and execution resumes in
    /// order. The wire stream is resynced with a forced keyframe so a
    /// binary-wire client reconnecting to this replica decodes a valid
    /// stream continuation.
    SessionId adoptSession(DetachedSession&& detached);

    /// In-submission-order log of the event kinds actually applied to the
    /// session's widget (coalesced-away events never appear). Test hook
    /// for the per-session ordering guarantee.
    std::vector<SliderEvent::Kind> appliedEvents(SessionId id) const;

    /// The session's widget, for tests and diagnostics (nullptr for an
    /// unknown id). The pointer is owned by the service and only safe to
    /// read while no request of this session is executing (e.g. after
    /// drain()).
    const viz::RinWidget* sessionWidget(SessionId id) const;

    /// Point-in-time copy of all serving metrics.
    MetricsSnapshot metrics() const override { return registry_.snapshot(); }

    /// The live registry (ReplicaSet merges replica registries through it).
    const MetricsRegistry& registry() const { return registry_; }

    obs::SloEngine* sloEngine() const override { return options_.slo.get(); }
    obs::TailSampler* tailSampler() const override { return options_.tailSampler.get(); }
    std::string sloJson() const override;

    /// SLO → ladder coupling: a floor under the degradation rung every
    /// subsequent request executes at. The ReplicaSet raises it to Approx
    /// while the latency budget fast-burns and drops it back on recovery;
    /// requests shed this way tick the "slo_degraded" counter. The queue-
    /// depth ladder still escalates above the floor.
    void setMinimumDegradeLevel(viz::DegradeLevel level);
    viz::DegradeLevel minimumDegradeLevel() const;

    const Options& options() const { return options_; }
    count workerCount() const { return pool_->size(); }

private:
    struct Session {
        SessionId id = 0;
        std::unique_ptr<viz::RinWidget> widget;
        std::deque<detail::QueuedRequest> queue;
        bool busy = false;   ///< a request of this session is executing
        bool frozen = false; ///< migration in progress: do not schedule
        std::vector<SliderEvent::Kind> appliedLog;
        // Speculative pipeline. Every enqueued task ticks "speculated" and
        // resolves to exactly one of spec_hit / spec_miss / spec_cancelled:
        // a completed speculation is "pending" until the next graph-moving
        // request judges it (hit/miss via UpdateTiming), everything else —
        // token fired, session closed, nothing predictable — is cancelled.
        CancelToken specToken;   ///< fired by any real submit / close
        bool specQueued = false; ///< a task is queued or running
        bool specPending = false; ///< completed, awaiting judgement
    };

    /// Schedules the session on the pool if it is idle with pending work.
    /// Caller must hold mutex_.
    void pumpLocked(const std::shared_ptr<Session>& session);
    /// Refreshes interactiveLive_; must follow every totalQueued_ /
    /// inFlight_ mutation (all happen under mutex_).
    void syncLiveLocked();

    /// Enqueues a background speculation task for an idle session when its
    /// widget opted in and predicts a next event. Caller must hold mutex_.
    void maybeSpeculateLocked(const std::shared_ptr<Session>& session);

    /// Resolves an unjudged pending speculation as cancelled (session
    /// closing / migrating / shutting down). Caller must hold mutex_.
    void cancelPendingSpeculationLocked(Session& session);

    /// Worker-side: pops and executes the session's next request.
    void runNext(std::shared_ptr<Session> session);

    /// Background-worker-side: runs one speculation attempt.
    void runSpeculation(std::shared_ptr<Session> session, CancelToken token);

    static void resolveAll(detail::QueuedRequest& request, const RequestOutcome& outcome);

    Options options_;
    std::unique_ptr<ThreadPool> pool_;
    MetricsRegistry registry_;
    /// viz::DegradeLevel rank; atomics so the SLO controller flips them
    /// without the service lock.
    std::atomic<int> minDegradeRank_{0};
    std::atomic<int> lastServedRank_{0}; ///< degrade_transition edge detect

    mutable std::mutex mutex_;
    std::condition_variable idle_;
    std::condition_variable specIdle_; ///< waitSpeculationIdle wakeup
    std::map<SessionId, std::shared_ptr<Session>> sessions_;
    SessionId nextId_ = 1;
    count totalQueued_ = 0;  ///< across sessions (drives the depth gauge)
    count inFlight_ = 0;
    /// Lock-free mirror of totalQueued_ + inFlight_, refreshed under
    /// mutex_ wherever either changes (syncLiveLocked). Read by a running
    /// speculation's abort callback between layout iterations — taking
    /// mutex_ there would contend with the very requests speculation must
    /// yield to.
    std::atomic<count> interactiveLive_{0};
    /// Speculation tasks enqueued on the pool and not yet finished. Kept
    /// globally (not derived from the session map) so waitSpeculationIdle
    /// also covers tasks whose session closed while they sat in the
    /// background queue — each such orphan still resolves (cancelled)
    /// when the pool runs it.
    count specTasksQueued_ = 0;
};

} // namespace rinkit::serve
