#include "core/gtpn/markov.hh"

#include <cmath>
#include <limits>

#include "common/json.hh"
#include "common/logging.hh"

namespace hsipc::gtpn
{

namespace
{

// The solve's numerical method is fixed; none of it is a setting.
constexpr double relaxation = 0.95;   //!< share of each update applied
constexpr int checkInterval = 16;     //!< sweeps between residual checks
constexpr int maxSweeps = 200000;     //!< reaching this cap is an error
constexpr double maxResidual = 1e-10; //!< ||pi P - pi||_1 at convergence

} // namespace

void
MarkovChain::resize(std::size_t n)
{
    if (n > sojourns.size()) {
        diag.resize(n, 0.0);
        sojourns.resize(n, 1.0);
        rowSums.resize(n, 0.0);
    }
}

void
MarkovChain::addEdge(std::size_t from, std::size_t to, double prob)
{
    hsipc_assert(prob >= 0.0 && prob <= 1.0 + 1e-12);
    hsipc_assert(std::max(from, to) <
                 std::numeric_limits<std::uint32_t>::max());
    resize(std::max(from, to) + 1);
    if (from == to)
        diag[to] += prob;
    else
        edges.push_back(Edge{static_cast<std::uint32_t>(from),
                             static_cast<std::uint32_t>(to), prob});
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

    // Incoming off-diagonal edges as CSR arrays, grouped by destination
    // with a stable counting sort, so each inflow sum adds its terms in
    // the order addEdge() saw them.
    std::vector<std::size_t> start(n + 1, 0);
    for (const Edge &e : edges)
        ++start[e.to + 1];
    for (std::size_t j = 0; j < n; ++j)
        start[j + 1] += start[j];
    std::vector<std::uint32_t> src(edges.size());
    std::vector<double> prob(edges.size());
    {
        std::vector<std::size_t> next(start.begin(), start.end() - 1);
        for (const Edge &e : edges) {
            const std::size_t k = next[e.to]++;
            src[k] = e.from;
            prob[k] = e.prob;
        }
    }

    SolveResult res;
    std::vector<double> pi(n, 1.0 / static_cast<double>(n));
    // sum_{i != j} pi(i) p(i, j): the probability flowing into state j
    // from other states.
    const auto inflow = [&](std::size_t j) {
        double acc = 0.0;
        for (std::size_t k = start[j]; k < start[j + 1]; ++k)
            acc += pi[src[k]] * prob[k];
        return acc;
    };
    double residual = 0.0;
    int sweep = 0;
    for (;;) {
        // One Gauss-Seidel sweep with the self-loop solved exactly:
        // pi(j) = inflow(j) + p(j, j) pi(j).  pi(j) is updated in place
        // so later states see the freshest values, and under-relaxed so
        // that a periodic chain cannot make the sweeps oscillate.  An
        // absorbing state (p(j, j) = 1, the analyzer's deadlocks) has
        // no such solution and keeps the power-iteration update.
        double sum = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            const double acc = inflow(j);
            const double leave = 1.0 - diag[j];
            pi[j] = leave > 0.0 ? (1.0 - relaxation) * pi[j] +
                                      relaxation * (acc / leave)
                                : pi[j] + acc;
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
            residual += std::abs(inflow(j) + diag[j] * pi[j] - pi[j]);
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
