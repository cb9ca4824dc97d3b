#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/obs/trace.hpp"
#include "src/support/types.hpp"

namespace rinkit {

/// Cooperative cancellation token shared between a speculative task and
/// whoever may want to stop it. The holder calls cancel(); the task polls
/// cancelled() at phase boundaries and exits early. Copies share state.
class CancelToken {
public:
    CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

    void cancel() const { flag_->store(true, std::memory_order_relaxed); }
    bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

private:
    std::shared_ptr<std::atomic<bool>> flag_;
};

/// Fixed-size worker pool with one FIFO task queue.
///
/// This is the serving layer's execution substrate (serve::SessionService
/// schedules one task per queued widget request), deliberately separate
/// from the OpenMP team the kernels use: OpenMP parallelizes *inside* one
/// update, the pool runs *independent sessions* concurrently. FIFO order
/// gives round-robin fairness across sessions that re-enqueue themselves
/// after each request.
///
/// Speculative tasks share the queue with interactive ones; they yield by
/// polling a CancelToken the service fires when real work arrives, not by
/// a separate priority class.
///
/// Destruction waits for the queue to drain and joins every worker;
/// tasks submitted after shutdown began are silently dropped.
class ThreadPool {
public:
    explicit ThreadPool(count threads) {
        if (threads == 0) threads = 1;
        workers_.reserve(threads);
        for (count i = 0; i < threads; ++i) {
            workers_.emplace_back([this] { workerLoop(); });
        }
    }

    ~ThreadPool() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        available_.notify_all();
        for (auto& w : workers_) w.join();
    }

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Enqueues @p task; it runs on some worker in FIFO order.
    ///
    /// The submitter's span context travels with the task: the worker
    /// installs it for the task's duration, so spans opened inside the
    /// task attach to the submitting request's trace instead of starting
    /// disconnected roots (obs::ContextScope is a no-op-cheap TLS swap
    /// when tracing is off).
    void submit(std::function<void()> task) {
        const obs::SpanContext ctx = obs::Tracer::global().currentContext();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_) return;
            queue_.push_back({std::move(task), ctx});
        }
        available_.notify_one();
    }

    count size() const { return workers_.size(); }

private:
    struct QueuedTask {
        std::function<void()> task;
        obs::SpanContext ctx; ///< submitter's span context (propagated)
    };

    void workerLoop() {
        for (;;) {
            QueuedTask entry;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
                if (queue_.empty()) return; // stopping_ and drained
                entry = std::move(queue_.front());
                queue_.pop_front();
            }
            obs::ContextScope propagate(entry.ctx);
            entry.task();
        }
    }

    std::vector<std::thread> workers_;
    std::deque<QueuedTask> queue_;
    std::mutex mutex_;
    std::condition_variable available_;
    bool stopping_ = false;
};

} // namespace rinkit
