/**
 * @file
 * Solutions of the chapter-6 performance models.
 *
 * solveLocal() analyzes the single-node local-conversation net.
 * solveNonlocal() runs the iterative two-node procedure of §6.6.3:
 * the client-node model is solved with the current estimate of the
 * server delay S_d; Little's law converts its throughput into the
 * client busy time C_d; the server-node model solved with C_d yields
 * (via the customers-in-system Queue place and Little's law again) a
 * new S_d; iteration continues until S_d is stationary.
 *
 * Neither solve takes tuning options.  Every answer returned is
 * converged: an unconverged Markov solve or fixed point panics.
 */

#ifndef HSIPC_MODELS_SOLUTION_HH
#define HSIPC_MODELS_SOLUTION_HH

#include <cstddef>

#include "core/models/nonlocal_model.hh"
#include "core/models/processing_times.hh"

namespace hsipc::models
{

/** Result of a local-conversation solve. */
struct LocalSolution
{
    double throughputPerUs = 0.0; //!< round trips per microsecond
    std::size_t states = 0;
    bool converged = false;       //!< always true on return
};

/**
 * Result of the non-local fixed point.  throughputPerUs and clientBusy
 * are evaluated at serverDelay, so clientBusy + serverDelay equals
 * conversations / throughputPerUs.
 */
struct NonlocalSolution
{
    double throughputPerUs = 0.0; //!< round trips per microsecond
    double serverDelay = 0.0;     //!< converged S_d, microseconds
    double clientBusy = 0.0;      //!< converged C_d', microseconds
    double residual = 0.0;        //!< final |F(S_d) - S_d| / S_d
    int iterations = 0;
    bool converged = false;       //!< always true on return
    std::size_t clientStates = 0;
    std::size_t serverStates = 0;
};

/**
 * The local model's automatic time scale, microseconds per model time
 * unit: the smallest stage mean keeps at least 20 time units.
 */
double localAutoScale(const LocalParams &params, double computeTime);

/**
 * Solve the local model of @p arch.  A positive @p timeScale
 * (microseconds per model time unit) overrides localAutoScale().
 */
LocalSolution solveLocal(Arch arch, int conversations, double computeTime,
                         double timeScale = 0.0);

/**
 * Local model with explicit parameters and host count — used for the
 * chapter-7 shared-memory-multiprocessor extension (several hosts per
 * node served by one MP) and for MP-speed ablations.
 */
LocalSolution solveLocalCustom(const LocalParams &params,
                               int conversations, double computeTime,
                               int hostTokens, double timeScale = 0.0);

/**
 * Solve the non-local two-node fixed point for @p arch.  It stops once
 * the relative residual |F(S_d) - S_d| / S_d is below 1e-3 and panics
 * if that takes more than 60 iterations.
 */
NonlocalSolution solveNonlocal(Arch arch, int conversations,
                               double computeTime);

/**
 * Non-local fixed point with explicit parameters, used for the
 * validation configuration of §6.8 (two host processors per node and
 * the extra network-buffer copy folded into the MP stage means).
 */
NonlocalSolution solveNonlocalCustom(const NonlocalClientParams &cp,
                                     const NonlocalServerParams &sp,
                                     int conversations, double computeTime,
                                     int hostTokens);

/**
 * The validation-configuration parameters (§6.8): architecture II with
 * an additional 40-byte copy (220 us of M68000 processing) on every
 * network-buffer crossing.
 */
NonlocalClientParams validationClientParams();
NonlocalServerParams validationServerParams();

} // namespace hsipc::models

#endif // HSIPC_MODELS_SOLUTION_HH
