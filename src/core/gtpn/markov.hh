/**
 * @file
 * Steady-state solver for finite discrete Markov chains with
 * deterministic sojourn times (the chain embedded at GTPN state-change
 * instants).
 *
 * The solver runs Gauss-Seidel sweeps of the splitting
 * pi_j <- sum_{i != j} pi_i p_ij / (1 - p_jj) (Stewart 1994, ch. 3):
 * each self-loop is solved exactly rather than iterated, so a state
 * that mostly stays put costs one update, not thousands.  Updates are
 * in place, so later states see the freshest values.  In-place updates
 * alone do not cure periodicity: on a periodic chain whose states are
 * numbered against the flow, plain sweeps can oscillate for ever.  So
 * each update moves pi_j a fixed 0.95 of the way to its new value.
 * That under-relaxation gives the sweep's iteration matrix a positive
 * diagonal, so on an irreducible chain 1 is its only eigenvalue of
 * modulus one and the sweeps converge in any state order.  The solver
 * has no tuning parameters: it stops once the exact residual
 * ||pi P - pi||_1 is at most 1e-10, and a chain that does not get
 * there within the sweep cap is a hard error.
 */

#ifndef HSIPC_GTPN_MARKOV_HH
#define HSIPC_GTPN_MARKOV_HH

#include <cstddef>
#include <cstdint>
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
    /** An off-diagonal edge, kept in the order addEdge() saw it. */
    struct Edge
    {
        std::uint32_t from;
        std::uint32_t to;
        double prob;
    };

    std::vector<Edge> edges;
    std::vector<double> diag; //!< self-loop probability p_jj per state
    std::vector<double> sojourns;
    std::vector<double> rowSums;
};

} // namespace hsipc::gtpn

#endif // HSIPC_GTPN_MARKOV_HH
