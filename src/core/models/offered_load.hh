/**
 * @file
 * Offered-load computation (Tables 6.24 and 6.25).
 *
 * Offered load is C / (C + S): the fraction of a conversation spent in
 * communication, where C is the round-trip communication time of one
 * conversation under the given architecture and S the server
 * computation time.  The thesis obtains C by solving the models with
 * one conversation and zero computation; communicationTime() does the
 * same (and caches the result).
 */

#ifndef HSIPC_MODELS_OFFERED_LOAD_HH
#define HSIPC_MODELS_OFFERED_LOAD_HH

#include <vector>

#include "core/models/processing_times.hh"

namespace hsipc::models
{

/** The server-computation times (milliseconds) of Tables 6.24/6.25. */
const std::vector<double> &offeredLoadServerTimesMs();

/**
 * Round-trip communication time C for one conversation at zero
 * computation, microseconds.  Results are cached per (arch, local).
 */
double communicationTime(Arch arch, bool local);

/** Offered load C / (C + S) for a server time of @p serverUs. */
double offeredLoad(Arch arch, bool local, double serverUs);

/**
 * The server computation time S achieving a given offered load under
 * @p arch (the inverse of offeredLoad), microseconds.
 */
double serverTimeForLoad(Arch arch, bool local, double load);

} // namespace hsipc::models

#endif // HSIPC_MODELS_OFFERED_LOAD_HH
