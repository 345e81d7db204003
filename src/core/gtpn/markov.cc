#include "core/gtpn/markov.hh"

#include <cmath>

#include "common/json.hh"
#include "common/logging.hh"

namespace hsipc::gtpn
{

namespace
{

// The solve's numerical method is fixed; none of it is a setting.
constexpr double damping = 0.5;       //!< weight of the previous iterate
constexpr int checkInterval = 16;     //!< sweeps between residual checks
constexpr int maxSweeps = 200000;     //!< reaching this cap is an error
constexpr double maxResidual = 1e-10; //!< ||pi P - pi||_1 at convergence

} // namespace

void
MarkovChain::resize(std::size_t n)
{
    if (n > sojourns.size()) {
        incoming.resize(n);
        sojourns.resize(n, 1.0);
        rowSums.resize(n, 0.0);
    }
}

void
MarkovChain::addEdge(std::size_t from, std::size_t to, double prob)
{
    hsipc_assert(prob >= 0.0 && prob <= 1.0 + 1e-12);
    resize(std::max(from, to) + 1);
    incoming[to].push_back(Edge{from, prob});
    rowSums[from] += prob;
}

void
MarkovChain::setSojourn(std::size_t state, double t)
{
    hsipc_assert(t > 0.0);
    resize(state + 1);
    sojourns[state] = t;
}

SolveResult
MarkovChain::solve() const
{
    const std::size_t n = numStates();
    hsipc_assert(n > 0);
    for (std::size_t i = 0; i < n; ++i) {
        if (std::abs(rowSums[i] - 1.0) > 1e-6)
            hsipc_panic("Markov row " + std::to_string(i) +
                        " sums to " + std::to_string(rowSums[i]));
    }

    SolveResult res;
    std::vector<double> pi(n, 1.0 / static_cast<double>(n));
    // (pi P)(j): the probability flowing into state j.
    const auto inflow = [this, &pi](std::size_t j) {
        double acc = 0.0;
        for (const Edge &e : incoming[j])
            acc += pi[e.src] * e.prob;
        return acc;
    };
    double residual = 0.0;
    int sweep = 0;
    for (;;) {
        // One damped Gauss-Seidel sweep: pi(j) is updated in place so
        // later states see the freshest values, which markedly speeds
        // convergence on the near-pipeline chains the GTPN produces.
        double sum = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            pi[j] = damping * pi[j] + (1.0 - damping) * inflow(j);
            sum += pi[j];
        }
        hsipc_assert(sum > 0.0);
        const double inv = 1.0 / sum;
        for (double &v : pi)
            v *= inv;

        ++sweep;
        if (sweep % checkInterval != 0)
            continue;
        // The exact L1 residual ||pi P - pi||_1 of the normalized iterate.
        residual = 0.0;
        for (std::size_t j = 0; j < n; ++j)
            residual += std::abs(inflow(j) - pi[j]);
        if (residual <= maxResidual)
            break;
        if (sweep >= maxSweeps)
            hsipc_panic("Markov solve did not converge: residual " +
                        jsonNumber(residual) + " after " +
                        std::to_string(sweep) + " sweeps over " +
                        std::to_string(n) + " states");
    }

    res.piEmbedded = pi;
    res.residual = residual;
    res.sweeps = sweep;

    // Time-weight by deterministic sojourns.
    res.piTime.resize(n);
    double z = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        res.piTime[j] = pi[j] * sojourns[j];
        z += res.piTime[j];
    }
    hsipc_assert(z > 0.0);
    for (double &v : res.piTime)
        v /= z;
    return res;
}

} // namespace hsipc::gtpn
