/**
 * @file
 * Exact GTPN analyzer: builds the reachability graph of tangible
 * states, solves the embedded Markov chain, and reports time-averaged
 * resource usages and transition firing rates.
 *
 * This mirrors the analyzer the thesis used ("takes a description of
 * the petri net, builds the reachable states for the net, solves the
 * embedded Markov process, and gives exact estimates for resource
 * usage", §6.5).
 */

#ifndef HSIPC_GTPN_ANALYZER_HH
#define HSIPC_GTPN_ANALYZER_HH

#include <map>
#include <string>
#include <vector>

#include "core/gtpn/markov.hh"
#include "core/gtpn/net.hh"
#include "core/gtpn/tokengame.hh"

namespace hsipc::gtpn
{

/**
 * Results of an exact GTPN analysis.  analyze() returns only a
 * converged solve, so @c converged is always true on return.
 */
struct AnalyzerResult
{
    std::size_t numStates = 0;
    bool converged = false;
    bool deadlock = false; //!< some reachable state had no successor
    int sweeps = 0;
    double residual = 0.0; //!< final ||pi P - pi||_1 of the Markov solve

    /** Time-averaged number of simultaneous firings per resource. */
    std::map<std::string, double> resourceUsage;

    /** Completions of each transition per unit model time. */
    std::vector<double> firingRate;

    /**
     * Time-averaged token count per place (residual marking only;
     * tokens held by in-flight firings are not counted, so use
     * dedicated bookkeeping places — as the thesis does with its
     * "Queue" place — when measuring customers in a subsystem).
     */
    std::vector<double> placeOccupancy;

    /** Usage of a named resource (0 when the name never appears). */
    double
    usage(const std::string &name) const
    {
        auto it = resourceUsage.find(name);
        return it == resourceUsage.end() ? 0.0 : it->second;
    }
};

/**
 * Exact steady-state analysis of @p net.  Panics if the reachability
 * graph grows past @p maxStates, a safety bound on memory, or if the
 * Markov solve does not converge (see MarkovChain::solve()).
 */
AnalyzerResult analyze(const PetriNet &net,
                       std::size_t maxStates = 2000000);

} // namespace hsipc::gtpn

#endif // HSIPC_GTPN_ANALYZER_HH
