/**
 * @file
 * Steady-state solver for finite discrete Markov chains with
 * deterministic sojourn times (the chain embedded at GTPN state-change
 * instants).
 *
 * The solver runs damped Gauss-Seidel sweeps of x <- xP over a sparse
 * incoming-edge representation; damping removes periodicity (the
 * thesis' nets are strongly periodic because every timed transition
 * takes exactly one time unit).  It has no tuning parameters: it stops
 * once the exact residual ||pi P - pi||_1 is at most 1e-10, and a
 * chain that does not get there within the sweep cap is a hard error.
 */

#ifndef HSIPC_GTPN_MARKOV_HH
#define HSIPC_GTPN_MARKOV_HH

#include <cstddef>
#include <vector>

namespace hsipc::gtpn
{

/** Result of a stationary solve (always converged on return). */
struct SolveResult
{
    std::vector<double> piEmbedded; //!< stationary of the embedded chain
    std::vector<double> piTime;     //!< sojourn-weighted (time) stationary
    double residual = 0.0;          //!< final ||pi P - pi||_1 (<= 1e-10)
    int sweeps = 0;
};

/**
 * A sparse Markov chain under construction.  States are dense indices
 * 0..n-1; edges carry transition probabilities; every state has a
 * deterministic sojourn time.
 */
class MarkovChain
{
  public:
    /** Ensure the chain has at least @p n states. */
    void resize(std::size_t n);

    std::size_t numStates() const { return sojourns.size(); }

    /** Add probability mass @p prob to the edge from -> to. */
    void addEdge(std::size_t from, std::size_t to, double prob);

    /** Set the deterministic sojourn time of @p state. */
    void setSojourn(std::size_t state, double t);

    /**
     * Solve for the stationary distribution.  Rows must each sum to 1
     * (within numerical tolerance); the chain should have a single
     * recurrent class reachable from every state.  Panics, naming the
     * residual, sweep count and state count, if the residual is still
     * above 1e-10 after 200,000 sweeps.
     */
    SolveResult solve() const;

  private:
    struct Edge
    {
        std::size_t src;
        double prob;
    };

    /** Incoming edges per destination state. */
    std::vector<std::vector<Edge>> incoming;
    std::vector<double> sojourns;
    std::vector<double> rowSums;
};

} // namespace hsipc::gtpn

#endif // HSIPC_GTPN_MARKOV_HH
