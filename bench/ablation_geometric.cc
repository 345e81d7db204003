/**
 * @file
 * Ablation: the geometric approximation of large constant delays
 * (§6.6.1, Fig 6.7).
 *
 * The thesis replaces every deterministic processing time by a
 * geometric delay of equal mean to keep the GTPN state space small,
 * and asserts the approximation is good for mean throughput.  Here we
 * quantify it: a closed two-stage cycle where one stage is either an
 * exact constant delay or its geometric approximation, across delay
 * magnitudes and token populations — plus the time-scale invariance
 * the solver layer relies on.
 *
 * Every GTPN solve is independent, so both grids fan out over
 * `--jobs` workers and render afterwards in input order.
 */

#include <cstdio>
#include <functional>
#include <vector>

#include "common/bench_main.hh"
#include "common/parallel/parallel.hh"
#include "common/table.hh"
#include "core/gtpn/analyzer.hh"
#include "core/models/solution.hh"

namespace
{

using namespace hsipc::gtpn;

double
cycleThroughput(int tokens, int delay, bool geometric)
{
    PetriNet net;
    const PlaceId a = net.addPlace("A", tokens);
    const PlaceId b = net.addPlace("B");
    const PlaceId server = net.addPlace("Server", 1);

    // Measured stage: a single server with a 3-unit service.
    const TransId svc = net.addTransition("svc", 3.0, 1.0, "Lambda");
    net.inputArc(b, svc);
    net.inputArc(server, svc);
    net.outputArc(svc, a);
    net.outputArc(svc, server);

    if (geometric) {
        const double mean = delay;
        const TransId exit = net.addTransition("exit", 1.0, 1.0 / mean);
        net.inputArc(a, exit);
        net.outputArc(exit, b);
        const TransId loop =
            net.addTransition("loop", 1.0, 1.0 - 1.0 / mean);
        net.inputArc(a, loop);
        net.outputArc(loop, a);
        (void)exit; (void)loop;
    } else {
        const TransId think = net.addTransition(
            "think", static_cast<double>(delay), 1.0);
        net.inputArc(a, think);
        net.outputArc(think, b);
        (void)think;
    }
    return analyze(net).usage("Lambda") / 3.0; // completions per unit
}

} // namespace

int
main(int argc, char **argv)
{
    hsipc::bench::init(argc, argv, "ablation_geometric");
    using hsipc::TextTable;
    using namespace hsipc::models;

    // Grid 1: (tokens, delay) x {constant, geometric}.
    std::vector<std::function<double()>> cycleTasks;
    for (int tokens : {1, 2, 3}) {
        for (int delay : {5, 20, 80}) {
            for (bool geometric : {false, true}) {
                cycleTasks.push_back([tokens, delay, geometric]() {
                    return cycleThroughput(tokens, delay, geometric);
                });
            }
        }
    }
    // Grid 2: the time-scale invariance sweep.
    const std::vector<double> scales = {2.0, 5.0, 10.0, 20.0};
    std::vector<std::function<LocalSolution()>> scaleTasks;
    for (double scale : scales) {
        scaleTasks.push_back(
            [scale]() { return solveLocal(Arch::III, 2, 1710.0, scale); });
    }
    const std::vector<double> cyc =
        hsipc::parallel::runAll<double>(hsipc::bench::jobs(),
                                        cycleTasks);
    const std::vector<LocalSolution> inv =
        hsipc::parallel::runAll<LocalSolution>(hsipc::bench::jobs(),
                                               scaleTasks);

    TextTable t("Geometric vs constant delay (closed cycle, 3-unit "
                "single server): completions per time unit");
    t.header({"Tokens", "Think delay", "Constant", "Geometric",
              "error %"});
    std::size_t cell = 0;
    for (int tokens : {1, 2, 3}) {
        for (int delay : {5, 20, 80}) {
            const double c = cyc[cell++];
            const double g = cyc[cell++];
            t.row({std::to_string(tokens), std::to_string(delay),
                   TextTable::num(c, 5), TextTable::num(g, 5),
                   TextTable::num(100.0 * (g - c) / c, 2)});
        }
    }
    std::printf("%s\n", t.render().c_str());
    hsipc::bench::record(t);

    // Time-scale invariance of the architecture models.
    TextTable s("Model granularity (Arch III local, 2 conversations, "
                "X = 1.71 ms)");
    s.header({"timeScale (us/unit)", "msgs/s", "states"});
    for (std::size_t i = 0; i < scales.size(); ++i) {
        const LocalSolution &r = inv[i];
        s.row({TextTable::num(scales[i], 0),
               TextTable::num(r.throughputPerUs * 1e6, 1),
               std::to_string(r.states)});
    }
    std::printf("%s", s.render().c_str());
    hsipc::bench::record(s);
    return hsipc::bench::finish();
}
