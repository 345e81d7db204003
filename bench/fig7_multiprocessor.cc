/**
 * @file
 * The chapter-7 extension (Fig 7.1): shared-memory multiprocessor
 * nodes, where one message coprocessor serves a collection of hosts.
 *
 * The thesis proposes this as the natural scaling of its design and
 * argues the MP will eventually need a faster (VLSI) implementation.
 * We extend the local-conversation model with multiple host tokens
 * and scale the conversation count with the host count; the kernel
 * simulator (which already supports several hosts) cross-checks.
 * Watch the MP saturate: added hosts stop helping once the single MP
 * is the bottleneck, and a 2x-faster MP restores the scaling.
 *
 * Every cell is an independent model solve or simulation; they fan
 * out over `--jobs` workers and render in input order, so the output
 * is byte-identical at any jobs level.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <vector>

#include "common/bench_main.hh"
#include "common/parallel/parallel.hh"
#include "common/table.hh"
#include "core/models/local_model.hh"
#include "core/models/solution.hh"
#include "sim/kernel/ipc_sim.hh"

int
main(int argc, char **argv)
{
    hsipc::bench::init(argc, argv, "fig7_multiprocessor");
    using namespace hsipc;
    using namespace hsipc::models;

    const double x = 1710.0; // offered load ~0.74 on architecture I

    // Enough conversations to feed every host (capped: the state
    // space of 6-conversation nets runs to minutes).
    const auto conversations = [](int hosts) {
        return std::min(2 * hosts, 4);
    };
    std::vector<std::function<double()>> tasks;
    for (int hosts = 1; hosts <= 3; ++hosts) {
        const int n = conversations(hosts);
        for (const LocalParams &p :
             {localParams(Arch::II),
              scaleMpSpeed(localParams(Arch::II), 2.0),
              localParams(Arch::III)}) {
            tasks.push_back([p, n, x, hosts]() {
                return solveLocalCustom(p, n, x, hosts).throughputPerUs *
                       1e6;
            });
        }
        tasks.push_back([n, x, hosts]() {
            sim::Experiment e;
            e.arch = Arch::II;
            e.local = true;
            e.conversations = n;
            e.computeUs = x;
            e.hostsPerNode = hosts;
            return sim::runExperiment(e).throughputPerSec;
        });
    }
    const std::vector<double> thr =
        parallel::runAll<double>(hsipc::bench::jobs(), tasks);

    TextTable t("Figure 7.1 extension - multiprocessor nodes, local "
                "conversations, X = 1.71 ms: messages/sec");
    t.header({"Hosts", "Conversations", "Model Arch II",
              "Model II + 2x MP", "Model Arch III", "Sim Arch II"});
    std::size_t cell = 0;
    for (int hosts = 1; hosts <= 3; ++hosts) {
        std::vector<std::string> row{std::to_string(hosts),
                                     std::to_string(conversations(hosts))};
        for (int col = 0; col < 4; ++col)
            row.push_back(TextTable::num(thr[cell++], 1));
        t.row(std::move(row));
    }
    std::printf("%s", t.render().c_str());
    hsipc::bench::record(t);
    return hsipc::bench::finish();
}
