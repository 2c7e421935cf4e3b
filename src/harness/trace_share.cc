#include "harness/trace_share.h"

#include "harness/artifact_cache.h"

namespace rtd::harness {

void
TraceShareStats::retain(uint64_t bytes)
{
    uint64_t now = retainedBytes.fetch_add(bytes) + bytes;
    uint64_t peak = peakBytes.load();
    while (now > peak && !peakBytes.compare_exchange_weak(peak, now)) {
    }
}

void
TraceShareStats::release(uint64_t bytes)
{
    retainedBytes.fetch_sub(bytes);
}

TraceShare::TraceShare(TraceShareStats *stats)
    : stats_(stats ? stats : &own_)
{
}

TraceShare::TraceShare(const std::vector<Job> &jobs) : TraceShare()
{
    for (const Job &job : jobs)
        add(keyOf(job));
}

std::string
TraceShare::keyOf(const Job &job)
{
    const core::SystemConfig &config = job.config;
    if (config.scheme == compress::Scheme::None ||
        config.scheme == compress::Scheme::ProcLzrw1 ||
        config.cpu.engine != cpu::Engine::Blocks ||
        config.fault.enabled() || config.observe.enabled)
        return {};
    return ArtifactCache::imageKey(job.workload, config) +
           "|rf=" + (config.secondRegFile ? "1" : "0") +
           "|line=" + std::to_string(config.cpu.icache.lineBytes);
}

void
TraceShare::add(const std::string &key)
{
    if (key.empty())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    ++entries_[key].pending;
}

std::shared_ptr<const cpu::FrozenTraces>
TraceShare::claim(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end())
        return nullptr;
    std::shared_ptr<const cpu::FrozenTraces> traces = it->second.traces;
    if (--it->second.pending == 0)
        entries_.erase(it);
    return traces;
}

void
TraceShare::seed(core::System &system,
                 std::shared_ptr<const cpu::FrozenTraces> base)
{
    if (system.seedTraces(std::move(base)))
        ++stats_->seeded;
    else
        ++stats_->rejected;
}

void
TraceShare::offer(const std::string &key, const core::System &system)
{
    auto wanted = [&] {
        auto it = entries_.find(key);
        return it != entries_.end() && !it->second.traces &&
               it->second.pending > 0;
    };
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!wanted())
            return;
    }
    // Freeze outside the lock: it copies every trace of the run.
    std::shared_ptr<const cpu::FrozenTraces> frozen = system.freezeTraces();
    if (!frozen)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (!wanted())
        return;  // another job of the key published first
    // The retained-bytes gauge follows the store's lifetime: released
    // when the last job holding it lets go, wherever that happens.
    const uint64_t bytes = frozen->bytes();
    TraceShareStats *stats = stats_;
    stats->retain(bytes);
    ++stats->published;
    const cpu::FrozenTraces *raw = frozen.get();
    entries_[key].traces = std::shared_ptr<const cpu::FrozenTraces>(
        raw, [frozen = std::move(frozen), stats,
              bytes](const cpu::FrozenTraces *) mutable {
            stats->release(bytes);
            frozen.reset();
        });
}

} // namespace rtd::harness
