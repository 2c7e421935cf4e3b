#include "obs/trace.h"

#include <cstdio>

#include "cpu/cpu.h"
#include "support/logging.h"

namespace rtd::obs {

using harness::Json;

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::JobBegin:       return "job-begin";
      case EventKind::JobEnd:         return "job-end";
      case EventKind::MissBegin:      return "miss-begin";
      case EventKind::MissEnd:        return "miss-end";
      case EventKind::HandlerEnter:   return "handler-enter";
      case EventKind::HandlerIret:    return "handler-iret";
      case EventKind::ProcFaultBegin: return "proc-fault-begin";
      case EventKind::ProcFaultEnd:   return "proc-fault-end";
      case EventKind::Swic:           return "swic";
      case EventKind::MachineCheck:   return "machine-check";
      case EventKind::DmissBegin:     return "dmiss-begin";
      case EventKind::DmissEnd:       return "dmiss-end";
    }
    return "?";
}

TraceBuffer::TraceBuffer(size_t capacity)
{
    RTDC_ASSERT(capacity > 0, "trace buffer needs a nonzero capacity");
    buf_.resize(capacity);
}

void
TraceBuffer::push(const TraceEvent &event)
{
    if (size_ == buf_.size()) {
        // Full: overwrite the oldest so the tail of the run survives.
        buf_[start_] = event;
        start_ = (start_ + 1) % buf_.size();
        ++dropped_;
        return;
    }
    buf_[(start_ + size_) % buf_.size()] = event;
    ++size_;
}

std::vector<TraceEvent>
TraceBuffer::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(size_);
    for (size_t i = 0; i < size_; ++i)
        out.push_back(buf_[(start_ + i) % buf_.size()]);
    return out;
}

namespace {

std::string
hexAddr(uint32_t addr)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%08x", addr);
    return buf;
}

/** The Chrome "ph" phase + display name for one event kind. */
struct Phase
{
    const char *ph;
    const char *name;
};

Phase
phaseOf(EventKind kind)
{
    switch (kind) {
      case EventKind::JobBegin:       return {"B", "run"};
      case EventKind::JobEnd:         return {"E", "run"};
      case EventKind::MissBegin:      return {"B", "i-miss"};
      case EventKind::MissEnd:        return {"E", "i-miss"};
      case EventKind::HandlerEnter:   return {"B", "decompress"};
      case EventKind::HandlerIret:    return {"E", "decompress"};
      case EventKind::ProcFaultBegin: return {"B", "proc-fault"};
      case EventKind::ProcFaultEnd:   return {"E", "proc-fault"};
      case EventKind::Swic:           return {"i", "swic"};
      case EventKind::MachineCheck:   return {"i", "machine-check"};
      case EventKind::DmissBegin:     return {"B", "dmiss"};
      case EventKind::DmissEnd:       return {"E", "dmiss"};
    }
    return {"i", "?"};
}

} // namespace

Json
chromeTraceJson(const std::vector<TraceProcess> &processes)
{
    Json events = Json::array();
    for (size_t pid = 0; pid < processes.size(); ++pid) {
        const TraceProcess &proc = processes[pid];

        Json meta = Json::object();
        meta.set("name", "process_name");
        meta.set("ph", "M");
        meta.set("pid", static_cast<uint64_t>(pid));
        Json meta_args = Json::object();
        meta_args.set("name", proc.name);
        meta.set("args", std::move(meta_args));
        events.push(std::move(meta));

        if (!proc.trace)
            continue;
        for (const TraceEvent &e : proc.trace->snapshot()) {
            Phase phase = phaseOf(e.kind);
            Json ev = Json::object();
            ev.set("name", phase.name);
            ev.set("ph", phase.ph);
            ev.set("pid", static_cast<uint64_t>(pid));
            ev.set("tid", 0);
            // 1 simulated cycle renders as 1 us.
            ev.set("ts", e.cycle);
            if (phase.ph[0] == 'i')
                ev.set("s", "t");  // thread-scoped instant
            Json args = Json::object();
            switch (e.kind) {
              case EventKind::JobBegin:
                args.set("job", proc.name);
                break;
              case EventKind::JobEnd:
                args.set("user_insns", e.arg);
                break;
              case EventKind::MissBegin:
                args.set("addr", hexAddr(e.addr));
                args.set("compressed", e.arg != 0);
                break;
              case EventKind::MissEnd:
                args.set("service_cycles", e.arg);
                break;
              case EventKind::HandlerEnter:
              case EventKind::ProcFaultBegin:
              case EventKind::Swic:
                args.set("addr", hexAddr(e.addr));
                break;
              case EventKind::HandlerIret:
                args.set("handler_insns", e.arg);
                break;
              case EventKind::ProcFaultEnd:
                args.set("service_cycles", e.arg);
                break;
              case EventKind::MachineCheck:
                args.set("kind",
                         cpu::mcKindName(
                             static_cast<cpu::McKind>(e.arg)));
                args.set("addr", hexAddr(e.addr));
                break;
              case EventKind::DmissBegin:
                args.set("addr", hexAddr(e.addr));
                break;
              case EventKind::DmissEnd:
                args.set("service_cycles", e.arg);
                break;
            }
            ev.set("args", std::move(args));
            events.push(std::move(ev));
        }
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    return doc;
}

} // namespace rtd::obs
