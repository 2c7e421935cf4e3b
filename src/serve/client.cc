#include "serve/client.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "serve/wire.h"

namespace rtd::serve {

bool
Client::connect(const std::string &socket_path, std::string &error,
                unsigned retry_ms)
{
    socketPath_ = socket_path;
    unsigned waited = 0;
    unsigned delay = 10;
    for (;;) {
        int fd = connectUnix(socket_path, error);
        if (fd >= 0) {
            channel_ = std::make_unique<LineChannel>(fd);
            return true;
        }
        if (waited >= retry_ms)
            return false;
        unsigned sleep_ms = std::min(delay, retry_ms - waited);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(sleep_ms));
        waited += sleep_ms;
        delay = std::min(delay * 2, 200u);
    }
}

bool
Client::reconnect(std::string &error, unsigned retry_ms)
{
    if (socketPath_.empty()) {
        error = "never connected";
        return false;
    }
    channel_.reset();
    return connect(socketPath_, error, retry_ms);
}

bool
Client::call(const harness::Json &request, harness::Json &reply,
             std::string &error)
{
    if (!channel_) {
        error = "not connected";
        return false;
    }
    if (!channel_->writeJson(request)) {
        error = "write failed (daemon gone?)";
        channel_.reset();  // transport is dead; signal via !connected()
        return false;
    }
    if (!channel_->readJson(reply, error)) {
        if (error.empty())
            error = "connection closed by daemon";
        channel_.reset();
        return false;
    }
    return true;
}

namespace {

/** True when @p reply is {"ok":true,...}; else false with @p error. */
bool
replyOk(const harness::Json &reply, std::string &error)
{
    const harness::Json *ok = reply.find("ok");
    if (ok && ok->kind() == harness::Json::Kind::Bool && ok->asBool())
        return true;
    const harness::Json *message = reply.find("error");
    error = message && message->kind() == harness::Json::Kind::String
                ? message->asString()
                : "daemon refused the request";
    return false;
}

} // namespace

bool
Client::ping(std::string &error)
{
    harness::Json request = harness::Json::object();
    request.set("op", "ping");
    harness::Json reply;
    return call(request, reply, error) && replyOk(reply, error);
}

bool
Client::submit(const std::string &label,
               const std::vector<harness::Job> &jobs,
               std::string &sweep_id, uint64_t &cached,
               std::string &error, SubmitReject *reject)
{
    harness::Json request = harness::Json::object();
    request.set("op", "submit");
    request.set("label", label);
    harness::Json encoded = harness::Json::array();
    for (const harness::Job &job : jobs)
        encoded.push(encodeJob(job));
    request.set("jobs", std::move(encoded));
    harness::Json reply;
    if (!call(request, reply, error))
        return false;
    if (!replyOk(reply, error)) {
        if (reject) {
            const harness::Json *code = reply.find("code");
            if (code &&
                code->kind() == harness::Json::Kind::String &&
                code->asString() == "backpressure") {
                reject->backpressure = true;
                const harness::Json *depth = reply.find("queue_depth");
                const harness::Json *mark = reply.find("high_water");
                if (depth && depth->isNumber())
                    reject->queueDepth =
                        static_cast<uint64_t>(depth->asInt());
                if (mark && mark->isNumber())
                    reject->highWater =
                        static_cast<uint64_t>(mark->asInt());
            }
        }
        return false;
    }
    const harness::Json *id = reply.find("sweep_id");
    const harness::Json *cached_json = reply.find("cached");
    if (!id || id->kind() != harness::Json::Kind::String) {
        error = "malformed submit reply";
        return false;
    }
    sweep_id = id->asString();
    cached = cached_json && cached_json->kind() == harness::Json::Kind::Int
                 ? static_cast<uint64_t>(cached_json->asInt())
                 : 0;
    return true;
}

bool
Client::fetchResults(const std::string &sweep_id,
                     std::vector<harness::JobResult> &results,
                     uint64_t *cached_rows, std::string &error)
{
    harness::Json request = harness::Json::object();
    request.set("op", "results");
    request.set("sweep_id", sweep_id);
    if (!channel_ || !channel_->writeJson(request)) {
        error = "write failed (daemon gone?)";
        channel_.reset();
        return false;
    }
    uint64_t cached = 0;
    for (;;) {
        harness::Json row;
        if (!channel_->readJson(row, error)) {
            if (error.empty())
                error = "connection closed mid-stream";
            channel_.reset();  // mid-stream death is a transport failure
            return false;
        }
        if (!replyOk(row, error))
            return false;
        const harness::Json *complete = row.find("complete");
        if (complete && complete->kind() == harness::Json::Kind::Bool &&
            complete->asBool())
            break;
        const harness::Json *index = row.find("job");
        const harness::Json *result = row.find("result");
        if (!index || index->kind() != harness::Json::Kind::Int ||
            !result) {
            error = "malformed result row";
            return false;
        }
        size_t i = static_cast<size_t>(index->asInt());
        if (i >= results.size()) {
            error = "result row index out of range";
            return false;
        }
        if (!decodeJobResult(*result, results[i])) {
            error = "undecodable result row";
            return false;
        }
        const harness::Json *from_cache = row.find("cached");
        if (from_cache &&
            from_cache->kind() == harness::Json::Kind::Bool &&
            from_cache->asBool())
            ++cached;
    }
    if (cached_rows)
        *cached_rows = cached;
    return true;
}

bool
Client::shutdown(std::string &error)
{
    harness::Json request = harness::Json::object();
    request.set("op", "shutdown");
    harness::Json reply;
    return call(request, reply, error) && replyOk(reply, error);
}

std::vector<harness::JobResult>
RemoteExecutor::run(const std::string &label,
                    const std::vector<harness::Job> &jobs,
                    harness::ArtifactCache &cache)
{
    (void)cache;  // the daemon owns the artifact cache that matters
    // Pre-mark every row as lost; each row that actually streams back
    // is overwritten wholesale by its decode. Only when every resume
    // attempt is spent do the unfilled rows keep this structured
    // failure, so the sweep's rendering code still runs and the exit
    // code goes nonzero (keep-going shape, same as a local poisoned
    // job).
    std::vector<harness::JobResult> results(jobs.size());
    for (harness::JobResult &row : results) {
        row.ok = false;
        row.error = "row never arrived from daemon";
    }
    std::string error;
    std::string sweep_id;
    uint64_t cached_at_submit = 0;
    uint64_t cached_rows = 0;
    bool ok = false;
    // Outer loop: daemon-death resume. A transport failure drops the
    // client channel; each pass reconnects (bounded, the daemon may be
    // restarting and replaying its journal) and resubmits. Sweep ids
    // are content-derived and the daemon journals completions, so the
    // resubmit attaches to the recovered sweep and finished rows come
    // back from the result index — no duplicated work, byte-identical
    // rows.
    const int kResumeAttempts = 6;
    for (int resume = 0; resume < kResumeAttempts; ++resume) {
        if (!client_.connected()) {
            std::fprintf(stderr,
                         "[%s] daemon connection lost, "
                         "reconnecting (attempt %d/%d)\n",
                         label.c_str(), resume + 1, kResumeAttempts);
            if (!client_.reconnect(error, 10000)) {
                std::this_thread::sleep_for(
                    std::chrono::seconds(1));
                continue;
            }
        }
        // Inner loop: backpressure. A rejection is the daemon asking
        // us to wait, not an error: back off (bounded, doubling) and
        // resubmit — the queue drains at simulation speed, so a short
        // ladder usually suffices.
        bool submitted = false;
        unsigned backoff_ms = 50;
        for (int attempt = 0; attempt < 8; ++attempt) {
            Client::SubmitReject reject;
            submitted = client_.submit(label, jobs, sweep_id,
                                       cached_at_submit, error, &reject);
            if (submitted || !reject.backpressure)
                break;
            std::fprintf(
                stderr,
                "[%s] daemon backpressure (queue %llu/%llu), "
                "retrying in %ums\n",
                label.c_str(),
                static_cast<unsigned long long>(reject.queueDepth),
                static_cast<unsigned long long>(reject.highWater),
                backoff_ms);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff_ms));
            backoff_ms = std::min(backoff_ms * 2, 2000u);
        }
        if (!submitted) {
            if (!client_.connected())
                continue;  // daemon died mid-submit; resume
            break;  // structural refusal from a live daemon: give up
        }
        cached_rows = 0;
        if (client_.fetchResults(sweep_id, results, &cached_rows,
                                 error)) {
            ok = true;
            break;
        }
        if (client_.connected())
            break;  // live daemon refused the stream: give up
        // else: daemon died mid-stream; loop reconnects and resubmits
    }
    if (!ok) {
        std::fprintf(stderr, "[%s] remote sweep failed: %s\n",
                     label.c_str(), error.c_str());
    } else {
        std::fprintf(stderr,
                     "[%s] %zu jobs via daemon (%llu answered from "
                     "result index)\n",
                     label.c_str(), jobs.size(),
                     static_cast<unsigned long long>(cached_rows));
    }
    totalJobs_ += jobs.size();
    totalCached_ += cached_rows;
    return results;
}

} // namespace rtd::serve
