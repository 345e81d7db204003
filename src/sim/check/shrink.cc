#include "sim/check/shrink.hh"

#include <cmath>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <utility>

#include "sim/check/generator.hh"

namespace hsipc::sim::check
{

namespace
{

/**
 * f(key, member) for each field of T whose type is one of Vs, grouped
 * by type in the order Vs lists them, in table order within a group.
 */
template <class T, class... Vs, class F>
void
forEachFieldOf(F &&f)
{
    const auto ofType = [&f]<class V>() {
        Fields<T>::forEach([&f](const char *key, auto member, FieldUnit) {
            using Field = decltype(std::declval<T &>().*member);
            if constexpr (std::is_same_v<std::decay_t<Field>, V>)
                f(key, member);
        });
    };
    (ofType.template operator()<Vs>(), ...);
}

} // namespace

std::vector<std::string>
knobDiff(const Experiment &exp)
{
    const Experiment base = baseExperiment();
    std::vector<std::string> diff;
    const auto top = [&](const char *key, auto member) {
        if (exp.*member != base.*member)
            diff.push_back(key);
    };
    const auto topo = [&](const char *key, auto member) {
        if (exp.topo.*member != base.topo.*member)
            diff.push_back(std::string("topo.") + key);
    };
    // Scalars by type, then the topology, then the rest.
    forEachFieldOf<Experiment, models::Arch, bool, int, double>(top);
    forEachFieldOf<topo::Topology, int, double,
                   std::vector<topo::TopoLink>>(topo);
    forEachFieldOf<Experiment, std::uint64_t, std::vector<CrashWindow>,
                   std::string>(top);
    return diff;
}

int
knobDelta(const Experiment &exp)
{
    return static_cast<int>(knobDiff(exp).size());
}

ShrinkResult
shrinkExperiment(const Experiment &failing,
                 const FailurePredicate &stillFails, int maxRuns)
{
    const Experiment base = baseExperiment();
    Experiment cur = failing;
    int runs = 0;
    bool progress = true;

    // Accept candidate iff it still fails; never exceed the budget.
    // A candidate validate() rejects is skipped and costs no run.
    auto accept = [&](const Experiment &cand) {
        if (runs >= maxRuns || cand == cur || !validate(cand).empty())
            return false;
        ++runs;
        if (!stillFails(cand))
            return false;
        cur = cand;
        progress = true;
        return true;
    };

    // Bisect an int or double field between `lo`, a value that did
    // not fail, and its current failing value, for the failing value
    // closest to `lo`.
    auto bisect = [&](auto field, auto lo) {
        if constexpr (std::is_same_v<decltype(lo), int>) {
            long pass = lo;
            long fail = field(cur);
            while (runs < maxRuns) {
                const long mid = pass + (fail - pass) / 2;
                if (mid == pass || mid == fail)
                    break;
                Experiment bis = cur;
                field(bis) = static_cast<int>(mid);
                if (accept(bis))
                    fail = mid;
                else
                    pass = mid;
            }
        } else {
            double pass = lo;
            double fail = field(cur);
            for (int steps = 0; runs < maxRuns && steps < 16; ++steps) {
                // Round the midpoint so shrunk repros stay readable.
                const double mid =
                    std::round((pass + fail) / 2 * 1e6) / 1e6;
                if (mid == pass || mid == fail)
                    break;
                Experiment bis = cur;
                field(bis) = mid;
                if (accept(bis))
                    fail = mid;
                else
                    pass = mid;
            }
        }
    };

    // Reset a field to its base value; failing that, bisect an int or
    // double field toward it.
    auto shrink = [&](auto field) {
        using V = std::decay_t<decltype(field(cur))>;
        const V target = field(base);
        if (field(cur) == target)
            return;
        Experiment cand = cur;
        field(cand) = target;
        if (accept(cand))
            return;
        if constexpr (std::is_same_v<V, int> || std::is_same_v<V, double>)
            bisect(field, target);
    };

    // Drop a whole list; failing that, each entry in turn.
    auto dropEntries = [&](auto list) {
        if (list(cur).empty())
            return;
        Experiment cand = cur;
        list(cand).clear();
        if (accept(cand))
            return;
        for (std::size_t i = 0; i < list(cur).size();) {
            Experiment drop = cur;
            list(drop).erase(list(drop).begin() + static_cast<long>(i));
            if (!accept(drop))
                ++i; // on success cur shrank; retry index i
        }
    };

    const auto top = [&](const char *, auto member) {
        shrink([member](auto &e) -> auto & { return e.*member; });
    };
    const auto topo = [&](const char *key, auto member) {
        if (std::string_view(key) != "nodes")
            shrink([member](auto &e) -> auto & { return e.topo.*member; });
    };

    while (progress && runs < maxRuns) {
        progress = false;
        dropEntries([](auto &e) -> auto & { return e.crashSchedule; });

        // Topology: a whole-layer reset removes the most machinery.
        // Failing that, drop the link overrides, shrink the node
        // count toward the 2-node floor (1 is invalid; 0 is the
        // separate "off" reset), then reset/bisect each shape knob.
        shrink([](auto &e) -> auto & { return e.topo; });
        dropEntries([](auto &e) -> auto & { return e.topo.links; });
        if (cur.topo.nodes != base.topo.nodes) {
            Experiment cand = cur;
            cand.topo.nodes = base.topo.nodes;
            if (!accept(cand)) {
                cand.topo.nodes = 2;
                if (!accept(cand))
                    bisect([](auto &e) -> auto & { return e.topo.nodes; },
                           2);
            }
        }
        forEachFieldOf<topo::Topology, int, double>(topo);

        // Then the scalar knobs, in table order within each type.
        forEachFieldOf<Experiment, models::Arch, bool, std::uint64_t,
                       std::string, int, double>(top);
    }

    ShrinkResult res;
    res.minimal = cur;
    res.knobsChanged = knobDelta(cur);
    res.runsUsed = runs;
    return res;
}

} // namespace hsipc::sim::check
