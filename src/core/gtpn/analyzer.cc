#include "core/gtpn/analyzer.hh"

#include <limits>
#include <unordered_map>

#include "common/logging.hh"

namespace hsipc::gtpn
{

namespace
{

/** Intern @p state, returning its dense index (appending if new). */
std::size_t
intern(NetState state, std::unordered_map<std::string, std::size_t> &index,
       std::vector<NetState> &states, std::vector<std::size_t> &frontier)
{
    const std::string k = state.key();
    auto [it, fresh] = index.emplace(k, states.size());
    if (fresh) {
        states.push_back(std::move(state));
        frontier.push_back(it->second);
    }
    return it->second;
}

} // namespace

AnalyzerResult
analyze(const PetriNet &net, std::size_t maxStates)
{
    AnalyzerResult res;

    std::unordered_map<std::string, std::size_t> index;
    std::vector<NetState> states;
    std::vector<std::size_t> frontier;

    // Seed: run the selection phase on the initial marking.  The
    // stationary distribution does not depend on how the initial
    // probability splits, so each outcome simply seeds the BFS.
    NetState initial{net.initialMarking(), {}};
    for (Outcome &o : enumerateFirings(net, initial))
        intern(std::move(o.state), index, states, frontier);

    MarkovChain chain;
    std::vector<int> sojourn;

    while (!frontier.empty()) {
        const std::size_t s = frontier.back();
        frontier.pop_back();

        if (states.size() > maxStates)
            hsipc_panic("GTPN reachability graph exceeds maxStates");

        if (sojourn.size() <= s)
            sojourn.resize(states.size(), 1);

        if (states[s].firings.empty()) {
            // Deadlock: treat as absorbing with unit sojourn so the
            // solver still runs; flag it for the caller.
            res.deadlock = true;
            chain.addEdge(s, s, 1.0);
            chain.setSojourn(s, 1.0);
            sojourn[s] = 1;
            continue;
        }

        NetState advanced = states[s];
        const int step = advanceTime(net, advanced);
        sojourn[s] = step;
        chain.setSojourn(s, static_cast<double>(step));

        for (Outcome &o : enumerateFirings(net, advanced)) {
            const std::size_t t =
                intern(std::move(o.state), index, states, frontier);
            if (sojourn.size() < states.size())
                sojourn.resize(states.size(), 1);
            chain.addEdge(s, t, o.prob);
        }
    }

    res.numStates = states.size();
    const SolveResult sol = chain.solve();
    res.converged = true;
    res.sweeps = sol.sweeps;
    res.residual = sol.residual;

    // Time-averaged resource usage: every in-flight firing of a
    // tangible state is active throughout that state's sojourn.
    for (std::size_t s = 0; s < states.size(); ++s) {
        for (const Firing &f : states[s].firings) {
            const std::string &r = net.transition(f.trans).resource;
            if (!r.empty())
                res.resourceUsage[r] += sol.piTime[s];
        }
    }

    // Time-averaged marking per place.
    res.placeOccupancy.assign(net.numPlaces(), 0.0);
    for (std::size_t s = 0; s < states.size(); ++s) {
        for (std::size_t p = 0; p < net.numPlaces(); ++p) {
            res.placeOccupancy[p] +=
                sol.piTime[s] * static_cast<double>(states[s].marking[p]);
        }
    }

    // Firing rates: completions when leaving state s are the in-flight
    // firings whose remaining time equals the sojourn; the long-run
    // rate is the embedded-visit-weighted count over mean cycle time.
    res.firingRate.assign(net.numTransitions(), 0.0);
    double mean_cycle = 0.0;
    for (std::size_t s = 0; s < states.size(); ++s)
        mean_cycle += sol.piEmbedded[s] * static_cast<double>(sojourn[s]);
    if (mean_cycle > 0.0) {
        for (std::size_t s = 0; s < states.size(); ++s) {
            for (const Firing &f : states[s].firings) {
                if (f.remaining == sojourn[s]) {
                    res.firingRate[static_cast<std::size_t>(f.trans)] +=
                        sol.piEmbedded[s];
                }
            }
        }
        for (double &r : res.firingRate)
            r /= mean_cycle;
    }
    return res;
}

} // namespace hsipc::gtpn
