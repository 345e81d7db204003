#include "core/models/contention.hh"

#include "common/logging.hh"
#include "core/gtpn/analyzer.hh"

namespace hsipc::models
{

using namespace gtpn;

ContentionResult
solveContention(const std::vector<Activity> &activities, int numBuses)
{
    hsipc_assert(!activities.empty());
    hsipc_assert(numBuses >= 1);

    PetriNet net;
    std::vector<PlaceId> mem_bus;
    for (int b = 0; b < numBuses; ++b)
        mem_bus.push_back(net.addPlace("MemBus" + std::to_string(b), 1));

    std::vector<TransId> completion;
    for (const Activity &a : activities) {
        hsipc_assert(a.total() >= 2.0);
        hsipc_assert(a.bus >= 0 && a.bus < numBuses);
        const PlaceId run = net.addPlace(a.name + ".Run", 1);
        const PlaceId sel = net.addPlace(a.name + ".Sel");
        const PlaceId need = net.addPlace(a.name + ".NeedMem");

        const double t = a.total();
        // T1 — the activity completes (its final processing step);
        // the attached resource measures the completion rate.
        const TransId t1 =
            net.addTransition(a.name + ".done", 1.0, 1.0 / t, a.name);
        net.inputArc(run, t1);
        net.outputArc(t1, run);
        completion.push_back(t1);
        // T0 — otherwise move to the step selector.
        const TransId t0 =
            net.addTransition(a.name + ".step", 0.0, 1.0 - 1.0 / t);
        net.inputArc(run, t0);
        net.outputArc(t0, sel);
        // T2 — this step needs a shared-memory cycle.
        const TransId t2 =
            net.addTransition(a.name + ".wantMem", 0.0, a.memory / t);
        net.inputArc(sel, t2);
        net.outputArc(t2, need);
        // T3 — this step is pure processing.
        const TransId t3 =
            net.addTransition(a.name + ".cpu", 1.0, 1.0 - a.memory / t);
        net.inputArc(sel, t3);
        net.outputArc(t3, run);
        // T4 — one memory cycle, contending for the memory port.
        const TransId t4 = net.addTransition(a.name + ".memCycle", 1.0,
                                             1.0);
        net.inputArc(need, t4);
        net.inputArc(mem_bus[static_cast<std::size_t>(a.bus)], t4);
        net.outputArc(t4, run);
        net.outputArc(t4,
                      mem_bus[static_cast<std::size_t>(a.bus)]);
    }

    const AnalyzerResult r = analyze(net);
    hsipc_assert(!r.deadlock);

    ContentionResult out;
    for (std::size_t i = 0; i < activities.size(); ++i) {
        out.best.push_back(activities[i].total());
        const double rate =
            r.firingRate[static_cast<std::size_t>(completion[i])];
        hsipc_assert(rate > 0.0);
        out.contention.push_back(1.0 / rate);
    }
    return out;
}

std::vector<Activity>
archIClientActivities()
{
    // Table 6.2 — architecture I, non-local conversation, client node.
    return {
        {"SendProc", 1140, 150, 0},
        {"DMAout", 200, 30, 0},
        {"DMAin", 200, 30, 0},
        {"NetIntr", 830, 130, 0},
    };
}

} // namespace hsipc::models
