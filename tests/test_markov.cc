/**
 * @file
 * Unit tests for the sparse Markov steady-state solver.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/gtpn/markov.hh"

namespace
{

using namespace hsipc::gtpn;

TEST(Markov, TwoStateChain)
{
    // P = [[0.9, 0.1], [0.4, 0.6]]; stationary = (0.8, 0.2).
    MarkovChain c;
    c.addEdge(0, 0, 0.9);
    c.addEdge(0, 1, 0.1);
    c.addEdge(1, 0, 0.4);
    c.addEdge(1, 1, 0.6);
    c.setSojourn(0, 1.0);
    c.setSojourn(1, 1.0);

    const SolveResult r = c.solve();
    EXPECT_LE(r.residual, 1e-10);
    EXPECT_NEAR(r.piEmbedded[0], 0.8, 1e-8);
    EXPECT_NEAR(r.piEmbedded[1], 0.2, 1e-8);
    EXPECT_NEAR(r.piTime[0], 0.8, 1e-8);
}

TEST(Markov, NoSelfLoopStateConverges)
{
    // State 1 has no self-loop and always returns to state 0; the
    // sweep must still reach the stationary (2/3, 1/3).
    MarkovChain c;
    c.addEdge(0, 0, 0.5);
    c.addEdge(0, 1, 0.5);
    c.addEdge(1, 0, 1.0);

    const SolveResult r = c.solve();
    EXPECT_LE(r.residual, 1e-10);
    EXPECT_NEAR(r.piEmbedded[0], 2.0 / 3.0, 1e-8);
    EXPECT_NEAR(r.piEmbedded[1], 1.0 / 3.0, 1e-8);
}

TEST(Markov, PeriodicChainConverges)
{
    // 0 -> 1 -> 0 with period 2; undamped sweeps must still converge
    // to (0.5, 0.5).
    MarkovChain c;
    c.addEdge(0, 1, 1.0);
    c.addEdge(1, 0, 1.0);

    const SolveResult r = c.solve();
    EXPECT_LE(r.residual, 1e-10);
    EXPECT_NEAR(r.piEmbedded[0], 0.5, 1e-8);
    EXPECT_NEAR(r.piEmbedded[1], 0.5, 1e-8);
}

TEST(Markov, SojournWeighting)
{
    // Symmetric embedded chain, but state 1 is held 3x as long.
    MarkovChain c;
    c.addEdge(0, 1, 1.0);
    c.addEdge(1, 0, 1.0);
    c.setSojourn(0, 1.0);
    c.setSojourn(1, 3.0);

    const SolveResult r = c.solve();
    EXPECT_LE(r.residual, 1e-10);
    EXPECT_NEAR(r.piTime[0], 0.25, 1e-8);
    EXPECT_NEAR(r.piTime[1], 0.75, 1e-8);
}

TEST(Markov, RingChainUniform)
{
    const int n = 17;
    MarkovChain c;
    for (int i = 0; i < n; ++i)
        c.addEdge(static_cast<std::size_t>(i),
                  static_cast<std::size_t>((i + 1) % n), 1.0);
    const SolveResult r = c.solve();
    EXPECT_LE(r.residual, 1e-10);
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(r.piEmbedded[static_cast<std::size_t>(i)], 1.0 / n,
                    1e-7);
}

TEST(Markov, BirthDeathChain)
{
    // Random walk on 0..3 with up-prob 0.3, down-prob 0.7 (reflecting):
    // birth-death stationary pi(i) ~ (0.3/0.7)^i.
    MarkovChain c;
    const double up = 0.3, down = 0.7;
    c.addEdge(0, 1, up);
    c.addEdge(0, 0, down);
    c.addEdge(1, 2, up);
    c.addEdge(1, 0, down);
    c.addEdge(2, 3, up);
    c.addEdge(2, 1, down);
    c.addEdge(3, 3, up);
    c.addEdge(3, 2, down);

    const SolveResult r = c.solve();
    EXPECT_LE(r.residual, 1e-10);
    const double rho = up / down;
    const double z = 1 + rho + rho * rho + rho * rho * rho;
    for (int i = 0; i < 4; ++i)
        EXPECT_NEAR(r.piEmbedded[static_cast<std::size_t>(i)],
                    std::pow(rho, i) / z, 1e-7);
}

TEST(Markov, AbsorbingStateCollectsAllMass)
{
    MarkovChain c;
    c.addEdge(0, 1, 1.0);
    c.addEdge(1, 1, 1.0);
    const SolveResult r = c.solve();
    EXPECT_LE(r.residual, 1e-10);
    EXPECT_NEAR(r.piEmbedded[1], 1.0, 1e-8);
}

TEST(Markov, RejectsUnnormalizedRows)
{
    MarkovChain c;
    c.addEdge(0, 1, 0.5); // row 0 sums to 0.5
    c.addEdge(1, 0, 1.0);
    EXPECT_DEATH({ c.solve(); }, "sums");
}

TEST(Markov, SelfLoopDominatedChainConvergesInOneCheck)
{
    // P = [[1 - e, e], [2e, 1 - 2e]] with e = 1e-6 stays put almost
    // always.  Solving each self-loop exactly makes that free: the
    // first residual check, after 16 sweeps, already passes.
    const double e = 1e-6;
    MarkovChain c;
    c.addEdge(0, 0, 1.0 - e);
    c.addEdge(0, 1, e);
    c.addEdge(1, 0, 2.0 * e);
    c.addEdge(1, 1, 1.0 - 2.0 * e);

    const SolveResult r = c.solve();
    EXPECT_EQ(r.sweeps, 16);
    EXPECT_LE(r.residual, 1e-10);
    EXPECT_NEAR(r.piEmbedded[0], 2.0 / 3.0, 1e-8);
    EXPECT_NEAR(r.piEmbedded[1], 1.0 / 3.0, 1e-8);
}

TEST(Markov, PeriodicNonUniformChainConverges)
{
    // 0 -> 1, 1 -> {0, 2} at 0.5 each, 2 -> 1: period 2 and a
    // non-uniform stationary (1/4, 1/2, 1/4).  The sweep visits the
    // states with the flow, and the first residual check passes.
    MarkovChain c;
    c.addEdge(0, 1, 1.0);
    c.addEdge(1, 0, 0.5);
    c.addEdge(1, 2, 0.5);
    c.addEdge(2, 1, 1.0);

    const SolveResult r = c.solve();
    EXPECT_EQ(r.sweeps, 16);
    EXPECT_LE(r.residual, 1e-10);
    EXPECT_NEAR(r.piEmbedded[0], 0.25, 1e-8);
    EXPECT_NEAR(r.piEmbedded[1], 0.5, 1e-8);
    EXPECT_NEAR(r.piEmbedded[2], 0.25, 1e-8);
}

TEST(Markov, PeriodicChainAgainstSweepOrderConverges)
{
    // 0 -> 2, 2 -> 1, 1 -> {0, 1} at 0.5 each: stationary (1/4, 1/2,
    // 1/4), but the sweep visits the states against the flow.  A plain
    // in-place sweep maps (a, b, c) to (b/2, 2c, b/2) and swings for
    // ever between (1/3, 1/3, 1/3) and (1/6, 2/3, 1/6): its iteration
    // matrix has eigenvalues 0, 1 and -1.  The fixed under-relaxation
    // of each update removes the -1, so the solve converges.
    MarkovChain c;
    c.addEdge(0, 2, 1.0);
    c.addEdge(2, 1, 1.0);
    c.addEdge(1, 0, 0.5);
    c.addEdge(1, 1, 0.5);

    const SolveResult r = c.solve();
    EXPECT_EQ(r.sweeps, 144);
    EXPECT_LE(r.residual, 1e-10);
    EXPECT_NEAR(r.piEmbedded[0], 0.25, 1e-8);
    EXPECT_NEAR(r.piEmbedded[1], 0.5, 1e-8);
    EXPECT_NEAR(r.piEmbedded[2], 0.25, 1e-8);
}

TEST(Markov, UnconvergedSolvePanics)
{
    // Two 3-cycles 0 -> 1 -> 2 -> 0 and 3 -> 4 -> 5 -> 3, coupled only
    // by 0 -> 3 with probability 1e-7 and 3 -> 0 with 2e-7.  The chain
    // is nearly decomposable: mass moves between the cycles so slowly
    // that 200,000 sweeps leave a residual near 3e-8, and the solve
    // must fail loudly rather than return an unconverged answer.
    const double e = 1e-7;
    MarkovChain c;
    c.addEdge(0, 1, 1.0 - e);
    c.addEdge(0, 3, e);
    c.addEdge(1, 2, 1.0);
    c.addEdge(2, 0, 1.0);
    c.addEdge(3, 4, 1.0 - 2.0 * e);
    c.addEdge(3, 0, 2.0 * e);
    c.addEdge(4, 5, 1.0);
    c.addEdge(5, 3, 1.0);
    EXPECT_DEATH({ c.solve(); },
                 "did not converge: residual .* after 200000 sweeps over "
                 "6 states");
}

} // namespace
