#include "common/thread_pool.hh"

#include <utility>

#include "common/logging.hh"

namespace r2u
{

ThreadPool::ThreadPool(unsigned workers)
{
    if (workers < 1)
        workers = 1;
    queues_.reserve(workers);
    for (unsigned i = 0; i < workers; i++)
        queues_.push_back(std::make_unique<WorkerQueue>());
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; i++)
        threads_.emplace_back([this, i] { workerMain(i); });
}

ThreadPool::~ThreadPool()
{
    try {
        wait();
    } catch (...) {
        // A task exception nobody collected via wait(); dropping it is
        // the best a destructor can do.
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::submit(Task task)
{
    R2U_ASSERT(task != nullptr, "null task submitted");
    {
        // Push under the pool lock too: an idle worker re-checks the
        // queues under it before sleeping, so it either sees this task
        // or is already waiting when the notify below fires. A push
        // outside it could land between that check and the wait, and
        // the notify would be lost.
        std::lock_guard<std::mutex> lock(mutex_);
        pending_++;
        unsigned q = next_queue_;
        next_queue_ = (next_queue_ + 1) % workers();
        std::lock_guard<std::mutex> qlock(queues_[q]->mutex);
        queues_[q]->tasks.push_back(std::move(task));
    }
    work_cv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] { return pending_ == 0; });
    if (first_error_) {
        std::exception_ptr err = std::exchange(first_error_, nullptr);
        lock.unlock();
        std::rethrow_exception(err);
    }
}

bool
ThreadPool::tryPop(unsigned self, Task &out)
{
    // Own queue first, newest task first.
    {
        WorkerQueue &q = *queues_[self];
        std::lock_guard<std::mutex> lock(q.mutex);
        if (!q.tasks.empty()) {
            out = std::move(q.tasks.back());
            q.tasks.pop_back();
            return true;
        }
    }
    // Steal the oldest task from someone else. Count via queues_ (not
    // workers()): threads_ is still growing in the constructor while
    // early workers already run, but queues_ is complete before the
    // first thread starts.
    const unsigned n = static_cast<unsigned>(queues_.size());
    for (unsigned i = 1; i < n; i++) {
        WorkerQueue &q = *queues_[(self + i) % n];
        std::lock_guard<std::mutex> lock(q.mutex);
        if (!q.tasks.empty()) {
            out = std::move(q.tasks.front());
            q.tasks.pop_front();
            steals_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerMain(unsigned self)
{
    while (true) {
        Task task;
        if (tryPop(self, task)) {
            std::exception_ptr err;
            try {
                task(self);
            } catch (...) {
                err = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(mutex_);
            if (err && !first_error_)
                first_error_ = err;
            if (--pending_ == 0)
                idle_cv_.notify_all();
            continue;
        }
        std::unique_lock<std::mutex> lock(mutex_);
        if (stop_)
            return;
        // Re-check the queues under the pool lock: a submit may have
        // raced between our empty scan and this wait.
        bool any = false;
        for (auto &q : queues_) {
            std::lock_guard<std::mutex> qlock(q->mutex);
            any |= !q->tasks.empty();
        }
        if (any)
            continue;
        work_cv_.wait(lock);
    }
}

} // namespace r2u
