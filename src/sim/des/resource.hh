/**
 * @file
 * A serially-reusable resource (the shared-memory bus): one holder at
 * a time, granted by priority then FIFO, held for a fixed duration.
 */

#ifndef HSIPC_SIM_RESOURCE_HH
#define HSIPC_SIM_RESOURCE_HH

#include <algorithm>
#include <deque>
#include <string>

#include "common/obs/sinks.hh"
#include "common/trace/critical_path.hh"
#include "common/trace/tracer.hh"
#include "sim/des/event_queue.hh"

namespace hsipc::sim
{

/** A single-server resource with prioritized FIFO queueing. */
class Resource
{
  public:
    Resource(EventQueue &eq, std::string name)
        : eq(eq), name(std::move(name))
    {}

    /**
     * Record into the non-null members of @p s: a trace track of
     * holds and queue depth; for a request with a msgId, its
     * wait-for-grant as a causal Queue interval and its hold as
     * Service; and the profiler's attribution of release events plus
     * one provenance edge (granter -> this, delta = the hold) per
     * grant.  Observational only: grant order and timing never move.
     */
    void
    attach(const obs::Sinks &s)
    {
        sinks = s;
        traceTrack = s.tracer ? s.tracer->track(name) : -1;
        profOrigin = s.profiler ? s.profiler->origin(name) : 0;
    }

    /**
     * Acquire the resource for @p hold ticks; @p done runs at release
     * time.  Higher @p priority requests are granted first; equal
     * priorities are FIFO.  @p msgId (0 = none) attributes the wait
     * and the hold to a message's critical path.
     */
    void
    acquire(int priority, Tick hold, EventQueue::Callback done,
            long msgId = 0)
    {
        waiting.push_back(
            Request{priority, hold, msgId, eq.now(), std::move(done)});
        if (sinks.tracer)
            sinks.tracer->counter(traceTrack, "queued", eq.now(),
                                  static_cast<double>(waiting.size()));
        if (!busy)
            grantNext();
    }

    /** Fraction of time the resource has been held. */
    double
    utilization() const
    {
        const Tick span = eq.now();
        return span > 0
            ? static_cast<double>(busyTime()) /
                  static_cast<double>(span)
            : 0.0;
    }

    /**
     * Total ticks the resource has been held up to the present.  A
     * hold is booked in full when granted, so the portion of the
     * current hold that lies in the future is excluded (see
     * Processor::busyTime()).
     */
    Tick
    busyTime() const
    {
        return busyTicks - std::max<Tick>(0, heldUntil - eq.now());
    }

    std::size_t queueLength() const { return waiting.size(); }
    const std::string &resourceName() const { return name; }

  private:
    struct Request
    {
        int priority;
        Tick hold;
        long msgId;      //!< message whose path this access is on
        Tick enqueuedAt; //!< when the request joined the queue
        EventQueue::Callback done;
    };

    void
    grantNext()
    {
        if (waiting.empty())
            return;
        // Highest priority first; FIFO within a priority.
        std::size_t best = 0;
        for (std::size_t i = 1; i < waiting.size(); ++i) {
            if (waiting[i].priority > waiting[best].priority)
                best = i;
        }
        Request req = std::move(waiting[best]);
        waiting.erase(waiting.begin() + static_cast<long>(best));

        busy = true;
        busyTicks += req.hold;
        heldUntil = eq.now() + req.hold;
        if (sinks.tracer) {
            sinks.tracer->complete(traceTrack, "access", eq.now(),
                                   req.hold, "bus", req.msgId);
            sinks.tracer->counter(traceTrack, "queued", eq.now(),
                                  static_cast<double>(waiting.size()));
        }
        if (sinks.causal && req.msgId != 0) {
            sinks.causal->interval(req.msgId, name,
                                   trace::Component::Queue,
                                   req.enqueuedAt, eq.now());
            sinks.causal->interval(req.msgId, name,
                                   trace::Component::Service, eq.now(),
                                   eq.now() + req.hold);
        }
        if (sinks.profiler)
            sinks.profiler->edge(profOrigin, req.hold);
        eq.scheduleAfter(req.hold,
                         [this, done = std::move(req.done)]() {
                             obs::EngineProfiler::Scope s(
                                 sinks.profiler, profOrigin);
                             busy = false;
                             done();
                             if (!busy)
                                 grantNext();
                         });
    }

    EventQueue &eq;
    std::string name;
    obs::Sinks sinks; //!< enabled sinks; null members are off
    int profOrigin = 0;
    int traceTrack = -1;
    std::deque<Request> waiting;
    bool busy = false;
    Tick busyTicks = 0;
    Tick heldUntil = 0; //!< end of the latest granted hold
};

} // namespace hsipc::sim

#endif // HSIPC_SIM_RESOURCE_HH
