#include "core/models/offered_load.hh"

#include <map>
#include <mutex>

#include "common/logging.hh"
#include "core/models/solution.hh"

namespace hsipc::models
{

const std::vector<double> &
offeredLoadServerTimesMs()
{
    static const std::vector<double> times = {
        0, 0.57, 1.14, 1.71, 2.85, 5.7, 11.4, 17.1, 22.8, 28.5, 34.2,
        39.9, 45.6,
    };
    return times;
}

double
communicationTime(Arch arch, bool local)
{
    static std::map<std::pair<int, bool>, double> cache;
    static std::mutex mutex;

    const auto key = std::make_pair(static_cast<int>(arch), local);
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
    }

    const double tp = local ? solveLocal(arch, 1, 0.0).throughputPerUs
                            : solveNonlocal(arch, 1, 0.0).throughputPerUs;
    hsipc_assert(tp > 0.0);
    const double c = 1.0 / tp;

    std::lock_guard<std::mutex> lock(mutex);
    cache.emplace(key, c);
    return c;
}

double
offeredLoad(Arch arch, bool local, double serverUs)
{
    hsipc_assert(serverUs >= 0.0);
    const double c = communicationTime(arch, local);
    return c / (c + serverUs);
}

double
serverTimeForLoad(Arch arch, bool local, double load)
{
    hsipc_assert(load > 0.0 && load <= 1.0);
    const double c = communicationTime(arch, local);
    return c * (1.0 - load) / load;
}

} // namespace hsipc::models
