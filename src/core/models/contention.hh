/**
 * @file
 * The low-level shared-memory contention model of §6.6.2 (Fig 6.8,
 * Tables 6.2/6.3).
 *
 * Each message-passing activity consists of processing time and
 * shared-memory access time.  Exact modeling of memory contention
 * inside the architecture nets would explode their state space, so the
 * thesis computes, in a separate small GTPN, the "contention"
 * completion time of each activity when all potentially-overlapping
 * activities run concurrently, and feeds those inflated times into the
 * higher-level models.
 *
 * Every activity loops forever: each time unit it either performs a
 * processing step or (with probability memory/total) requests one
 * shared-memory cycle, contending with all other activities for the
 * memory port; the activity completes with probability 1/total per
 * unit.  The contention completion time is the reciprocal of the
 * completion rate.
 */

#ifndef HSIPC_MODELS_CONTENTION_HH
#define HSIPC_MODELS_CONTENTION_HH

#include <string>
#include <vector>

namespace hsipc::models
{

/** One activity of the contention model. */
struct Activity
{
    std::string name;
    double processing; //!< processor time per completion, microseconds
    double memory;     //!< shared-memory cycles per completion
    int bus = 0;       //!< memory partition (architecture IV uses 2)

    double total() const { return processing + memory; }
};

/** Per-activity completion times. */
struct ContentionResult
{
    std::vector<double> best;       //!< processing + memory
    std::vector<double> contention; //!< under full overlap
};

/**
 * Solve the contention model for @p activities over @p numBuses
 * independent memory partitions.
 */
ContentionResult
solveContention(const std::vector<Activity> &activities, int numBuses = 1);

/** The four activities of Table 6.2 (architecture I, client node). */
std::vector<Activity> archIClientActivities();

} // namespace hsipc::models

#endif // HSIPC_MODELS_CONTENTION_HH
