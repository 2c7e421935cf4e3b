/**
 * @file
 * JobQueue: a bounded, FIFO, multi-producer/multi-consumer work queue
 * for the serve daemon's dispatchers (DESIGN.md section 14).
 *
 * Items pop in push order, which keeps the submission-order
 * determinism the result re-sequencer relies on. A high-water mark
 * caps the number of queued items: pushBatch is all-or-nothing, so a
 * batch that would cross the mark is rejected whole (false), never
 * half-enqueued — the daemon turns that into a structured
 * "backpressure" error so the client can back off instead of OOMing
 * the server.
 *
 * close() wakes every blocked pop and makes all pops return false
 * immediately; items still queued are discarded (the daemon's stop path
 * marks their sweeps cancelled, so nobody waits on their rows).
 */

#ifndef RTDC_HARNESS_JOB_QUEUE_H
#define RTDC_HARNESS_JOB_QUEUE_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace rtd::harness {

template <typename T>
class JobQueue
{
  public:
    /** @param high_water max queued items; 0 = unbounded. */
    explicit JobQueue(size_t high_water = 0) : highWater_(high_water) {}

    /**
     * Enqueue @p items at the back, in order. All-or-nothing: false
     * (and nothing enqueued) when the batch would push the queue past
     * the high-water mark or the queue is closed.
     */
    bool pushBatch(std::vector<T> items)
    {
        return pushImpl(std::move(items), false);
    }

    /**
     * pushBatch that ignores the high-water mark (still refuses when
     * closed). For the serve daemon's crash recovery: jobs replayed
     * from the journal were already admitted once — bouncing them off
     * the backpressure bound now would lose them, and the mark only
     * exists to refuse *new* work.
     */
    bool forcePush(std::vector<T> items)
    {
        return pushImpl(std::move(items), true);
    }

    /**
     * Block until an item is available or the queue is closed. True
     * with @p out filled; false once closed (queued items are
     * discarded at close, so false means "stop now").
     */
    bool pop(T &out)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
        if (closed_)
            return false;
        out = std::move(items_.front());
        items_.pop_front();
        return true;
    }

    /** Close: every current and future pop returns false. */
    void close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
            items_.clear();
        }
        cv_.notify_all();
    }

    size_t depth() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return items_.size();
    }

    size_t highWater() const { return highWater_; }

  private:
    bool pushImpl(std::vector<T> items, bool force)
    {
        if (items.empty())
            return true;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (closed_)
                return false;
            if (!force && highWater_ != 0 &&
                items_.size() + items.size() > highWater_)
                return false;
            for (T &item : items)
                items_.push_back(std::move(item));
        }
        cv_.notify_all();
        return true;
    }

    size_t highWater_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<T> items_;
    bool closed_ = false;
};

} // namespace rtd::harness

#endif // RTDC_HARNESS_JOB_QUEUE_H
