#include "sim/node/processor.hh"

#include <memory>

namespace hsipc::sim
{

void
Processor::charge(Tick t, bool accessWait)
{
    busyTicks += t;
    chargedUntil = eq.now() + t;
    hsipc_assert(running);
    perActivity[running->act.name] += t;
    const long msg = running->act.msgId;
    if (sinks.tracer && t > 0) {
        // The first charge of a message-serving activity is where its
        // flow arrow lands: inside the span recorded just below.
        if (msg != 0 && !running->flowed) {
            running->flowed = true;
            sinks.tracer->flowStep(traceTrack, "msg", eq.now(), msg);
        }
        sinks.tracer->complete(traceTrack, running->act.name, eq.now(),
                               t, "activity", msg);
    }
    // Access-wait charges stay off the causal log: the bus records
    // that microsecond as the message's service itself.
    if (sinks.causal && msg != 0 && !accessWait)
        sinks.causal->interval(msg, name, trace::Component::Service,
                               eq.now(), eq.now() + t);
}

void
Processor::submit(Activity act)
{
    ++perActivityCount[act.name];
    Running r;
    r.cpuLeft = act.processing;
    r.memLeft = act.bus ? act.memAccesses : 0;
    r.memLeft2 = act.bus2 ? act.memAccesses2 : 0;
    // Accesses without a bus still cost their cycle time, serially on
    // this processor.
    if (!act.bus)
        r.cpuLeft += static_cast<Tick>(act.memAccesses) * tickUs;
    if (!act.bus2)
        r.cpuLeft += static_cast<Tick>(act.memAccesses2) * tickUs;
    const int segments = r.memLeft + r.memLeft2 + 1;
    r.chunk = r.cpuLeft / segments;
    r.act = std::move(act);

    // Preempt at the next chunk boundary if this is more urgent; the
    // queue keeps FCFS order within each priority.
    queue.push_back(std::move(r));
    std::stable_sort(queue.begin(), queue.end(),
                     [](const Running &a, const Running &b) {
                         return a.act.priority > b.act.priority;
                     });
    maybeStart();
}

void
Processor::maybeStart()
{
    if (running || queue.empty())
        return;
    running = std::make_unique<Running>(std::move(queue.front()));
    queue.pop_front();
    segment();
}

void
Processor::segment()
{
    hsipc_assert(running);

    // Check for preemption by a higher-priority pending activity.
    if (!queue.empty() &&
        queue.front().act.priority > running->act.priority) {
        Running paused = std::move(*running);
        running.reset();
        // Re-insert after the urgent work but ahead of its own class.
        std::size_t pos = 0;
        while (pos < queue.size() &&
               queue[pos].act.priority > paused.act.priority)
            ++pos;
        queue.insert(queue.begin() + static_cast<long>(pos),
                     std::move(paused));
        maybeStart();
        return;
    }

    // Interleave: while accesses remain, run one CPU chunk then one
    // memory access; the final chunk absorbs the rounding remainder.
    if (running->memLeft + running->memLeft2 > 0) {
        const Tick chunk = std::min(running->chunk, running->cpuLeft);
        running->cpuLeft -= chunk;
        charge(chunk);
        if (sinks.profiler)
            sinks.profiler->edge(profOrigin, chunk);
        eq.scheduleAfter(chunk, [this]() {
            obs::EngineProfiler::Scope s(sinks.profiler, profOrigin);
            // Alternate between the two partitions when both remain.
            Resource *bus;
            if (running->memLeft > 0 &&
                (running->memLeft >= running->memLeft2 ||
                 running->memLeft2 == 0)) {
                bus = running->act.bus;
                --running->memLeft;
            } else {
                bus = running->act.bus2;
                --running->memLeft2;
            }
            charge(tickUs, true); // the processor waits on its access
            bus->acquire(running->act.priority, tickUs,
                         [this]() {
                             obs::EngineProfiler::Scope s(
                                 sinks.profiler, profOrigin);
                             segment();
                         },
                         running->act.msgId);
        });
        return;
    }

    const Tick tail = running->cpuLeft;
    running->cpuLeft = 0;
    charge(tail);
    if (sinks.profiler)
        sinks.profiler->edge(profOrigin, tail);
    eq.scheduleAfter(tail, [this]() {
        obs::EngineProfiler::Scope s(sinks.profiler, profOrigin);
        finish();
    });
}

void
Processor::finish()
{
    hsipc_assert(running);
    const EventQueue::Callback done = std::move(running->act.onDone);
    running.reset();
    maybeStart();
    if (done)
        done();
}

} // namespace hsipc::sim
