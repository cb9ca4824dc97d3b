#include "src/serve/session_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/obs/event_log.hpp"

namespace rinkit::serve {

std::string_view sloVerdictName(SloVerdict verdict) {
    switch (verdict) {
    case SloVerdict::Ok: return "ok";
    case SloVerdict::DeadlineMissed: return "deadline_missed";
    case SloVerdict::Rejected: return "rejected";
    }
    return "unknown";
}

SliderEvent SliderEvent::setFrame(index frame, double deadlineMs) {
    SliderEvent e;
    e.kind = Kind::Frame;
    e.frame = frame;
    e.deadlineMs = deadlineMs;
    return e;
}

SliderEvent SliderEvent::setCutoff(double cutoff, double deadlineMs) {
    SliderEvent e;
    e.kind = Kind::Cutoff;
    e.cutoff = cutoff;
    e.deadlineMs = deadlineMs;
    return e;
}

SliderEvent SliderEvent::setMeasure(viz::Measure measure, double deadlineMs) {
    SliderEvent e;
    e.kind = Kind::Measure;
    e.measure = measure;
    e.deadlineMs = deadlineMs;
    return e;
}

SliderEvent SliderEvent::refresh(double deadlineMs) {
    SliderEvent e;
    e.kind = Kind::Refresh;
    e.deadlineMs = deadlineMs;
    return e;
}

std::string_view kindName(SliderEvent::Kind kind) {
    switch (kind) {
    case SliderEvent::Kind::Frame: return "frame";
    case SliderEvent::Kind::Cutoff: return "cutoff";
    case SliderEvent::Kind::Measure: return "measure";
    case SliderEvent::Kind::Refresh: return "refresh";
    }
    return "unknown";
}

namespace {

obs::SpanAttr numAttr(std::string_view key, double v) {
    obs::SpanAttr a;
    a.key.assign(key);
    a.num = v;
    return a;
}

obs::SpanAttr strAttr(std::string_view key, std::string_view v) {
    obs::SpanAttr a;
    a.key.assign(key);
    a.str.assign(v);
    a.isString = true;
    return a;
}

const char* degradeLevelName(viz::DegradeLevel level) {
    switch (level) {
    case viz::DegradeLevel::None: return "none";
    case viz::DegradeLevel::Approx: return "approx";
    case viz::DegradeLevel::Stale: return "stale";
    }
    return "?";
}

} // namespace

SessionService::SessionService(Options options) : options_(std::move(options)) {
    if (options_.workers == 0)
        options_.workers = std::max<count>(1, options_.budget.cpuMillis / 1000);
    if (options_.maxQueuedPerSession == 0)
        options_.maxQueuedPerSession = std::max<count>(2, options_.budget.memoryMb / 2048);
    registry_.setReplicaLabel(options_.replicaLabel);
    // Pre-seed the lifecycle counters so every snapshot (and its JSON)
    // carries the full set, zeros included. The wire_* counters track the
    // shipped payloads: bytes in whichever format the session uses, and
    // the keyframe/delta split for binary-wire sessions (JSON payloads
    // count frames and bytes but neither wire_keyframes nor
    // wire_delta_frames, so delta ratio = wire_delta_frames / frames_shipped
    // is meaningful per-format). handed_off/adopted account migration:
    // pending queue slots leaving / arriving with a migrated session.
    // The speculative pipeline keeps its own closed accounting, invisible
    // to the request counters and the SLO engine:
    //   speculated == spec_hit + spec_miss + spec_cancelled
    // once the pipeline is idle (each enqueued task resolves exactly once).
    for (const char* name : {"submitted", "completed", "coalesced", "rejected",
                             "shed_degraded", "shed_stale", "deadline_missed",
                             "sessions_opened", "frames_shipped", "wire_bytes",
                             "wire_keyframes", "wire_delta_frames",
                             "handed_off", "adopted", "sessions_adopted",
                             "measure_tier_exact", "measure_tier_approx",
                             "measure_tier_stale",
                             "slo_degraded", "speculated", "spec_hit",
                             "spec_miss", "spec_cancelled", "spec_cpu_ms",
                             "lod_pairs_shipped"})
        registry_.increment(name, 0);
    // Structural exemplar hygiene: exemplars whose trace the sampler has
    // since evicted are dropped at snapshot time, so an exported exemplar
    // id always resolves to a retained span tree.
    if (options_.tailSampler) {
        registry_.setExemplarFilter(
            [sampler = options_.tailSampler](std::uint64_t traceId) {
                return sampler->isRetained(traceId);
            });
    }
    pool_ = std::make_unique<ThreadPool>(options_.workers);
}

SessionService::~SessionService() {
    // Reject everything still queued so no future dangles, and clear the
    // session map so finishing workers do not re-enqueue; then join the
    // pool while all other members are still alive.
    shutdown();
    pool_.reset();
}

void SessionService::shutdown() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, session] : sessions_) {
        session->specToken.cancel();
        cancelPendingSpeculationLocked(*session);
        for (auto& request : session->queue) {
            // One slot = one "rejected" tick: the coalesced waiters of
            // this slot were already accounted under "coalesced", so
            // per-slot counting keeps the invariant
            // submitted + adopted == completed + coalesced + rejected + handed_off.
            registry_.increment("rejected");
            RequestOutcome outcome;
            outcome.status = RequestStatus::Rejected;
            resolveAll(request, outcome);
        }
        totalQueued_ -= session->queue.size();
        syncLiveLocked();
        session->queue.clear();
    }
    sessions_.clear();
    registry_.gaugeQueueDepth(totalQueued_);
}

SessionId SessionService::openSession(const md::Trajectory& traj,
                                      viz::RinWidget::Options widgetOptions,
                                      std::string_view /*routingKey*/) {
    // Widget construction runs the initial update cycle — keep it off the
    // service lock.
    auto session = std::make_shared<Session>();
    session->widget = std::make_unique<viz::RinWidget>(traj, widgetOptions);

    std::lock_guard<std::mutex> lock(mutex_);
    session->id = nextId_++;
    const SessionId id = session->id;
    sessions_.emplace(id, std::move(session));
    registry_.increment("sessions_opened");
    return id;
}

void SessionService::closeSession(SessionId id) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    Session& session = *it->second;
    session.specToken.cancel();
    cancelPendingSpeculationLocked(session);
    for (auto& request : session.queue) {
        registry_.increment("rejected"); // per slot; see shutdown()
        RequestOutcome outcome;
        outcome.status = RequestStatus::Rejected;
        resolveAll(request, outcome);
    }
    totalQueued_ -= session.queue.size();
    syncLiveLocked();
    session.queue.clear();
    registry_.gaugeQueueDepth(totalQueued_);
    // An in-flight request holds its own shared_ptr and finishes normally;
    // erasing the map entry just prevents re-scheduling.
    sessions_.erase(it);
}

std::future<RequestOutcome> SessionService::submit(SessionId id, SliderEvent event) {
    std::promise<RequestOutcome> promise;
    std::future<RequestOutcome> future = promise.get_future();
    obs::Tracer& tracer = obs::Tracer::global();

    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end())
        throw std::invalid_argument("SessionService: unknown session id " + std::to_string(id));
    Session& session = *it->second;
    registry_.increment("submitted");
    // Real work preempts speculation: fire the token so an in-flight
    // speculative task yields its worker at the next phase boundary. A
    // speculation that already completed stays pending — this very request
    // will judge it.
    session.specToken.cancel();

    // Latest-wins coalescing: a queued event of the same kind is stale the
    // moment a newer one arrives — overwrite it in place, adopt its
    // waiters, and keep its queue slot so the queue does not grow. The
    // absorbed event rides the queued slot's trace; a point span on that
    // trace marks the overwrite.
    for (auto& queued : session.queue) {
        if (queued.event.kind == event.kind) {
            queued.event = event;
            ++queued.absorbed;
            queued.waiters.push_back(std::move(promise));
            registry_.increment("coalesced");
            const double now = tracer.nowUs();
            tracer.recordSpan("serve.coalesce", queued.traceCtx, tracer.nextId(),
                              queued.traceCtx.spanId, now, now,
                              {numAttr("absorbed", static_cast<double>(queued.absorbed))});
            return future;
        }
    }

    // Tail sampling replaces head sampling for request roots: with a
    // sampler attached every root is forced (recorded + buffered) and the
    // keep/drop call happens at finish(), when the outcome is known.
    obs::TailSampler* sampler = options_.tailSampler.get();
    const bool tail = sampler != nullptr && tracer.enabled();

    // Admission control: beyond the budgeted backlog nothing coalescible
    // is left, so refuse instead of queueing unboundedly. Rejections get a
    // root-only trace so overload is visible per request, not only as a
    // counter — and under tail sampling the shed root is retained.
    if (session.queue.size() >= options_.maxQueuedPerSession) {
        registry_.increment("rejected");
        const obs::SpanContext ctx =
            tail ? tracer.makeRootContext(obs::Sample::Force) : tracer.makeRootContext();
        if (tail && ctx.sampled) sampler->open(ctx.traceId);
        const double now = tracer.nowUs();
        tracer.recordSpan("serve.request", ctx, ctx.spanId, 0, now, now,
                          {strAttr("kind", kindName(event.kind)),
                           strAttr("status", "rejected"),
                           numAttr("session", static_cast<double>(id))});
        RequestOutcome outcome;
        outcome.status = RequestStatus::Rejected;
        outcome.sloVerdict = SloVerdict::Rejected;
        if (ctx.sampled) outcome.traceId = ctx.traceId;
        if (tail && ctx.sampled) {
            obs::TailVerdict verdict;
            verdict.rejected = true;
            outcome.traceRetained =
                sampler->finish(ctx.traceId, verdict) != obs::RetainReason::None;
        }
        if (options_.slo) {
            obs::SloSample s;
            s.rejected = true;
            options_.slo->record(s);
        }
        promise.set_value(outcome);
        return future;
    }

    detail::QueuedRequest request;
    request.event = event;
    request.waiters.push_back(std::move(promise));
    // Mint the request's trace on the submitting (service) thread; the
    // root span itself is emitted at completion with this start time.
    request.traceCtx =
        tail ? tracer.makeRootContext(obs::Sample::Force) : tracer.makeRootContext();
    if (tail && request.traceCtx.sampled) sampler->open(request.traceCtx.traceId);
    request.submittedUs = tracer.nowUs();
    {
        obs::ContextScope adopt(request.traceCtx);
        obs::ScopedSpan enqueue("serve.enqueue");
        enqueue.attr("session", static_cast<double>(id));
        enqueue.attr("kind", kindName(event.kind));
        enqueue.attr("queue_depth", static_cast<double>(session.queue.size()));
    }
    session.queue.push_back(std::move(request));
    ++totalQueued_;
    syncLiveLocked();
    registry_.gaugeQueueDepth(totalQueued_);
    // A real request instantly reclaims the worker its session's
    // speculation may be holding: firing the token makes the speculative
    // solve abort at its next per-iteration check, so the request waits at
    // most ~one layout sweep, never a whole solve. A speculation that
    // already completed is untouched — it sits pending and this very
    // request judges it hit or miss.
    if (session.specQueued) session.specToken.cancel();
    pumpLocked(it->second);
    return future;
}

void SessionService::drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return totalQueued_ == 0 && inFlight_ == 0; });
}

void SessionService::waitSpeculationIdle() {
    std::unique_lock<std::mutex> lock(mutex_);
    specIdle_.wait(lock, [this] { return specTasksQueued_ == 0; });
}

count SessionService::activeSessions() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sessions_.size();
}

std::vector<SliderEvent::Kind> SessionService::appliedEvents(SessionId id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end())
        throw std::invalid_argument("SessionService: unknown session id " + std::to_string(id));
    return it->second->appliedLog;
}

const viz::RinWidget* SessionService::sessionWidget(SessionId id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second->widget.get();
}

SessionService::DetachedSession SessionService::extractSession(SessionId id) {
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end())
        throw std::invalid_argument("SessionService: unknown session id " + std::to_string(id));
    std::shared_ptr<Session> session = it->second;

    // Quiesce: freeze scheduling (pumpLocked skips frozen sessions) and
    // wait out the in-flight request. Its waiters resolve normally on this
    // replica — only *unexecuted* work is handed off. Speculation does not
    // migrate: the token stops a running task, an unjudged result resolves
    // as cancelled here, and the widget leaves with its side slots empty —
    // so hit/miss never lands on a replica that never ticked "speculated".
    session->frozen = true;
    session->specToken.cancel();
    idle_.wait(lock, [&] { return !session->busy; });
    cancelPendingSpeculationLocked(*session);
    session->widget->dropSpeculation();

    DetachedSession detached;
    detached.widget_ = std::move(session->widget);
    detached.appliedLog_ = std::move(session->appliedLog);
    detached.queue_ = std::move(session->queue);
    for (count i = 0; i < detached.queue_.size(); ++i) registry_.increment("handed_off");
    totalQueued_ -= detached.queue_.size();
    syncLiveLocked();
    sessions_.erase(id);
    registry_.gaugeQueueDepth(totalQueued_);
    if (totalQueued_ == 0 && inFlight_ == 0) idle_.notify_all();
    return detached;
}

SessionId SessionService::adoptSession(DetachedSession&& detached) {
    if (!detached.valid())
        throw std::invalid_argument("SessionService: adopting an empty DetachedSession");
    // The client's wire stream is re-homed onto this replica: force the
    // next frame to be a keyframe (the resync rule), so the decoder
    // continues from a self-contained state instead of a delta against
    // frames the new replica never shipped.
    detached.widget_->forceWireResync();
    obs::EventLog::global().log(
        "wire_resync",
        "forced keyframe on adoption (" + std::to_string(detached.queuedRequests()) +
            " queued requests)",
        0, options_.replicaLabel);

    std::lock_guard<std::mutex> lock(mutex_);
    auto session = std::make_shared<Session>();
    session->id = nextId_++;
    session->widget = std::move(detached.widget_);
    session->appliedLog = std::move(detached.appliedLog_);
    session->queue = std::move(detached.queue_);
    for (count i = 0; i < session->queue.size(); ++i) registry_.increment("adopted");
    totalQueued_ += session->queue.size();
    syncLiveLocked();
    registry_.increment("sessions_adopted");
    registry_.gaugeQueueDepth(totalQueued_);
    const SessionId id = session->id;
    sessions_.emplace(id, session);
    pumpLocked(session);
    return id;
}

std::string SessionService::sloJson() const {
    return options_.slo ? options_.slo->toJson() : std::string("{\"objectives\":[]}");
}

void SessionService::setMinimumDegradeLevel(viz::DegradeLevel level) {
    minDegradeRank_.store(static_cast<int>(level), std::memory_order_relaxed);
}

viz::DegradeLevel SessionService::minimumDegradeLevel() const {
    return static_cast<viz::DegradeLevel>(minDegradeRank_.load(std::memory_order_relaxed));
}

void SessionService::syncLiveLocked() {
    interactiveLive_.store(totalQueued_ + inFlight_, std::memory_order_relaxed);
}

void SessionService::pumpLocked(const std::shared_ptr<Session>& session) {
    if (session->busy || session->frozen || session->queue.empty()) return;
    session->busy = true;
    ++inFlight_;
    syncLiveLocked();
    pool_->submit([this, session] { runNext(session); });
}

void SessionService::maybeSpeculateLocked(const std::shared_ptr<Session>& session) {
    // Only an idle session with nothing pending speculates: a queued or
    // unjudged speculation means there is nothing new to precompute (the
    // prediction cannot change until a real event runs).
    if (session->specQueued || session->specPending || session->busy || session->frozen ||
        !session->queue.empty())
        return;
    // Speculation donates *idle* capacity only. While any real request is
    // queued or executing anywhere, every worker's next slot belongs to
    // interactive work — a saturated closed-loop fleet must measure zero
    // speculative interference, not "a little". (At the runNext tail this
    // runs after --inFlight_, so a lone interactive session still
    // speculates in the gap before its next event.)
    if (totalQueued_ != 0 || inFlight_ != 0) return;
    if (!session->widget->options().speculate) return;
    if (!session->widget->predictNext().valid()) return;
    session->specToken = CancelToken();
    session->specQueued = true;
    ++specTasksQueued_;
    registry_.increment("speculated");
    pool_->submitBackground(
        [this, session, token = session->specToken] { runSpeculation(session, token); });
}

void SessionService::cancelPendingSpeculationLocked(Session& session) {
    if (!session.specPending) return;
    session.specPending = false;
    registry_.increment("spec_cancelled");
}

void SessionService::runSpeculation(std::shared_ptr<Session> session, CancelToken token) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // The world may have moved between enqueue and dequeue: a real
        // request queued or executing, the session closed or migrating, or
        // the token already fired. All of it resolves this task as
        // cancelled — speculation only ever runs on an otherwise idle
        // session, so it is invisible to interactive latency.
        if (sessions_.count(session->id) == 0 || session->frozen || session->busy ||
            !session->queue.empty() || totalQueued_ != 0 || inFlight_ != 0 ||
            token.cancelled()) {
            session->specQueued = false;
            --specTasksQueued_;
            registry_.increment("spec_cancelled");
            specIdle_.notify_all();
            return;
        }
        session->busy = true; // same per-session serialization as a request
    }

    obs::ScopedSpan span("serve.speculate");
    span.attr("session", static_cast<double>(session->id));
    if (!options_.replicaLabel.empty()) span.attr("replica", options_.replicaLabel);
    Timer cpu;
    // Yield at the next phase boundary (or layout iteration) once real
    // work exists anywhere in the service — queued on the pool, queued on
    // a session, or already executing. interactiveLive_ is the lock-free
    // mirror kept by syncLiveLocked(), so this poll never touches mutex_.
    const auto cancelled = [this, &token] {
        return token.cancelled() || pool_->interactivePending() ||
               interactiveLive_.load(std::memory_order_relaxed) != 0;
    };
    const bool completed = session->widget->speculate(cancelled);
    const double specMs = cpu.elapsedMs();
    span.attr("completed", completed);
    span.attr("spec_ms", specMs);
    registry_.recordLatency("speculate_ms", specMs);
    registry_.increment("spec_cpu_ms", static_cast<count>(specMs));

    std::lock_guard<std::mutex> lock(mutex_);
    session->specQueued = false;
    --specTasksQueued_;
    session->busy = false;
    if (completed && sessions_.count(session->id) != 0 && !session->frozen) {
        // Pending until the next graph-moving request judges it hit/miss.
        // (A request that arrives mid-compute fires the token and aborts
        // the solve; one that loses the race to a finished solve lands
        // here as a normal judge of the completed result.)
        session->specPending = true;
    } else {
        if (completed) session->widget->dropSpeculation();
        registry_.increment("spec_cancelled");
    }
    pumpLocked(session);
    specIdle_.notify_all();
    idle_.notify_all(); // extractSession may be waiting out this task
}

void SessionService::resolveAll(detail::QueuedRequest& request, const RequestOutcome& outcome) {
    for (auto& waiter : request.waiters) waiter.set_value(outcome);
    request.waiters.clear();
}

void SessionService::runNext(std::shared_ptr<Session> session) {
    detail::QueuedRequest request;
    count depthBehind = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (session->queue.empty()) {
            // closeSession rejected the backlog between scheduling and now.
            session->busy = false;
            --inFlight_;
            syncLiveLocked();
            idle_.notify_all();
            return;
        }
        request = std::move(session->queue.front());
        session->queue.pop_front();
        depthBehind = session->queue.size();
        --totalQueued_;
        syncLiveLocked();
        registry_.gaugeQueueDepth(totalQueued_);
        session->appliedLog.push_back(request.event.kind);
    }

    obs::Tracer& tracer = obs::Tracer::global();
    const double queueMs = request.queued.elapsedMs();
    const double deadlineMs =
        request.event.deadlineMs > 0.0 ? request.event.deadlineMs : options_.defaultDeadlineMs;

    // Degradation ladder: a deep backlog sheds this request to Approx
    // (sampled measures with a stated error bound); an extreme backlog
    // escalates to Stale (older-version results allowed). A blown queue
    // deadline degrades to at least Approx (still executed — the client
    // gets *an* update — but flagged).
    viz::DegradeLevel level = viz::DegradeLevel::None;
    bool deadlineMissed = false;
    if (depthBehind > options_.staleQueueDepth) {
        level = viz::DegradeLevel::Stale;
        registry_.increment("shed_degraded");
        registry_.increment("shed_stale");
    } else if (depthBehind > options_.degradeQueueDepth) {
        level = viz::DegradeLevel::Approx;
        registry_.increment("shed_degraded");
    }
    if (deadlineMs > 0.0 && queueMs > deadlineMs) {
        deadlineMissed = true;
        if (level == viz::DegradeLevel::None) level = viz::DegradeLevel::Approx;
        registry_.increment("deadline_missed");
        // Deadline misses are exactly the requests worth a trace: override
        // a lost head-sampling draw before any execution span opens. The
        // submit-side enqueue span was not recorded, but queue wait,
        // execution, and the root are all still ahead. Under tail sampling
        // the root was already forced at submit, so this flip is a no-op —
        // the force happens exactly once per root, never twice.
        if (!request.traceCtx.sampled && tracer.enabled())
            request.traceCtx.sampled = true;
    }

    // SLO → ladder coupling: while the latency budget fast-burns the
    // controller floors every request at Approx, shedding load *before*
    // queues build instead of after. The queue-depth rungs still escalate
    // above the floor.
    const auto floorLevel =
        static_cast<viz::DegradeLevel>(minDegradeRank_.load(std::memory_order_relaxed));
    if (static_cast<int>(floorLevel) > static_cast<int>(level)) {
        level = floorLevel;
        registry_.increment("slo_degraded");
    }

    // Edge-detect the service-wide served level so the ops log shows one
    // "degrade_transition" per change, not one per degraded request.
    const int prevRank = lastServedRank_.exchange(static_cast<int>(level),
                                                  std::memory_order_relaxed);
    if (prevRank != static_cast<int>(level)) {
        obs::EventLog::global().log(
            "degrade_transition",
            std::string(degradeLevelName(static_cast<viz::DegradeLevel>(prevRank))) + " -> " +
                degradeLevelName(level),
            request.traceCtx.sampled ? request.traceCtx.traceId : 0, options_.replicaLabel);
    }

    if (request.traceCtx.sampled) {
        tracer.recordSpan("serve.queue_wait", request.traceCtx, tracer.nextId(),
                          request.traceCtx.spanId, request.submittedUs, tracer.nowUs(),
                          {numAttr("queue_ms", queueMs),
                           numAttr("depth_behind", static_cast<double>(depthBehind))});
    }

    // The busy flag serializes per-session execution, so the widget is
    // touched by exactly one worker at a time — no lock held while the
    // update cycle runs. The request's trace context is adopted for the
    // execution scope: every widget/engine/rin span below lands in the
    // submitting request's tree even though a pool worker runs it.
    const bool degraded = level != viz::DegradeLevel::None;
    viz::RinWidget& widget = *session->widget;
    widget.setDegradeLevel(level);
    viz::RinWidget::UpdateTiming timing;
    {
        obs::ContextScope adopt(request.traceCtx);
        obs::ScopedSpan exec("serve.execute");
        exec.attr("session", static_cast<double>(session->id));
        exec.attr("kind", kindName(request.event.kind));
        exec.attr("degraded", degraded);
        if (!options_.replicaLabel.empty()) exec.attr("replica", options_.replicaLabel);
        switch (request.event.kind) {
        case SliderEvent::Kind::Frame:
            timing = widget.setFrame(request.event.frame);
            break;
        case SliderEvent::Kind::Cutoff:
            timing = widget.setCutoff(request.event.cutoff);
            break;
        case SliderEvent::Kind::Measure:
            timing = widget.setMeasure(request.event.measure);
            break;
        case SliderEvent::Kind::Refresh:
            timing = widget.refresh();
            break;
        }
        exec.attr("measure_cache_hit", timing.measureCacheHit);
        exec.attr("measure_tier", viz::tierName(timing.measureTier));
        if (timing.measureEps > 0.0) exec.attr("measure_eps", timing.measureEps);
    }

    // The latency the user saw: queue wait plus the full update cycle.
    // This (not just queue wait) is what the deadline-attainment SLO and
    // the tail sampler's verdict judge.
    const double latencyMs = queueMs + timing.totalMs();
    const bool sloMissed = deadlineMs > 0.0 && latencyMs > deadlineMs;

    if (request.traceCtx.sampled) {
        tracer.recordSpan(
            "serve.request", request.traceCtx, request.traceCtx.spanId, 0,
            request.submittedUs, tracer.nowUs(),
            {strAttr("kind", kindName(request.event.kind)),
             numAttr("session", static_cast<double>(session->id)),
             numAttr("coalesced", static_cast<double>(request.absorbed)),
             numAttr("queue_ms", queueMs), numAttr("degraded", degraded ? 1.0 : 0.0),
             numAttr("deadline_missed", deadlineMissed ? 1.0 : 0.0)});
    }

    // Retention verdict after the root span landed (so the retained tree
    // is complete), before exemplar stamping (so the stamped id is already
    // known-retained).
    bool retained = false;
    obs::TailSampler* sampler = options_.tailSampler.get();
    if (sampler != nullptr && request.traceCtx.sampled) {
        obs::TailVerdict verdict;
        verdict.durationMs = latencyMs;
        verdict.deadlineMissed = deadlineMissed || sloMissed;
        verdict.degraded = degraded;
        retained = sampler->finish(request.traceCtx.traceId, verdict) !=
                   obs::RetainReason::None;
    }

    if (options_.slo) {
        obs::SloSample s;
        s.latencyMs = latencyMs;
        s.deadlineMs = deadlineMs;
        s.servedStale = timing.measureTier == viz::ResolutionTier::Stale;
        s.eps = timing.measureEps;
        options_.slo->record(s);
    }

    const std::uint64_t exemplarId = retained ? request.traceCtx.traceId : 0;
    const double exemplarUs = tracer.nowUs();
    registry_.recordLatency("queue_ms", queueMs, exemplarId, exemplarUs);
    registry_.recordLatency("network_update_ms", timing.networkUpdateMs, exemplarId, exemplarUs);
    registry_.recordLatency("layout_ms", timing.layoutMs, exemplarId, exemplarUs);
    registry_.recordLatency("measure_ms", timing.measureMs, exemplarId, exemplarUs);
    registry_.recordLatency("scene_build_ms", timing.sceneBuildMs, exemplarId, exemplarUs);
    registry_.recordLatency("serialize_ms", timing.serializeMs, exemplarId, exemplarUs);
    registry_.recordLatency("server_ms", timing.serverMs(), exemplarId, exemplarUs);
    registry_.recordLatency("total_ms", latencyMs, exemplarId, exemplarUs);
    registry_.increment("completed");
    registry_.increment(std::string("measure_tier_") + viz::tierName(timing.measureTier));
    registry_.increment("frames_shipped");
    registry_.increment("wire_bytes", timing.wireBytes);
    if (timing.binaryWire)
        registry_.increment(timing.wireKeyframe ? "wire_keyframes" : "wire_delta_frames");
    if (timing.lodCoarse) registry_.increment("lod_pairs_shipped");
    // A graph-moving request judges the pending speculation: exactly one
    // of spec_hit/spec_miss per speculation that survived to judgement.
    if (timing.specJudged) registry_.increment(timing.specHit ? "spec_hit" : "spec_miss");

    RequestOutcome outcome;
    outcome.status = degraded ? RequestStatus::OkDegraded : RequestStatus::Ok;
    outcome.timing = timing;
    outcome.queueMs = queueMs;
    outcome.coalescedEvents = request.absorbed;
    outcome.deadlineMissed = deadlineMissed;
    if (request.traceCtx.sampled) outcome.traceId = request.traceCtx.traceId;
    outcome.traceRetained = retained;
    outcome.sloVerdict = (deadlineMissed || sloMissed) ? SloVerdict::DeadlineMissed
                                                       : SloVerdict::Ok;
    resolveAll(request, outcome);

    std::lock_guard<std::mutex> lock(mutex_);
    session->busy = false;
    --inFlight_;
    syncLiveLocked();
    if (timing.specJudged) session->specPending = false;
    // Re-enqueue through the pool's FIFO rather than looping here, so a
    // chatty session yields to the others between requests.
    if (sessions_.count(session->id) != 0) {
        pumpLocked(session);
        // Idle after this request: spend the idle capacity on the
        // predicted next tick (no-op unless the widget opted in).
        maybeSpeculateLocked(session);
    }
    // Wake both drain() (all-idle) and extractSession() (this session
    // quiesced); the predicates re-check under the lock.
    idle_.notify_all();
}

} // namespace rinkit::serve
