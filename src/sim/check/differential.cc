#include "sim/check/differential.hh"

#include <cmath>
#include <cstdio>
#include <string>

#include "core/models/mva.hh"
#include "core/models/solution.hh"
#include "sim/analysis/bottleneck.hh"

namespace hsipc::sim::check
{

namespace
{

std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

double
relDiff(double a, double b)
{
    const double scale = std::max(std::fabs(a), std::fabs(b));
    return scale == 0 ? 0 : std::fabs(a - b) / scale;
}

} // namespace

bool
differentialEligible(const Experiment &exp,
                     const DifferentialOptions &opts)
{
    const bool faultFree = exp.lossRate == 0 && exp.corruptRate == 0 &&
                           exp.duplicateRate == 0 &&
                           exp.reorderRate == 0 &&
                           exp.crashSchedule.empty();
    return exp.local && exp.mixedLocal + exp.mixedRemote == 0 &&
           exp.conversations >= 1 &&
           exp.conversations <= opts.maxConversations &&
           exp.computeUs <= opts.maxComputeUs &&
           exp.hostsPerNode == 1 && exp.mpSpeedFactor == 1 &&
           !exp.extraCopy && faultFree && !exp.reliableProtocol &&
           exp.kernelBuffers >= exp.conversations &&
           !robustnessEnabled(exp) &&
           // The analytic engines model the classic one/two-node
           // layout; a topology spreads conversations across N nodes.
           !exp.topo.enabled();
}

std::vector<Violation>
differentialCheck(const Experiment &exp,
                  const DifferentialOptions &opts)
{
    std::vector<Violation> v;

    // Engine 1: the DES, re-run to steady state with the latency
    // decomposition on so the trace names its own bottleneck.
    Experiment longRun = exp;
    longRun.warmupUs = opts.warmupUs;
    longRun.measureUs = opts.measureUs;
    longRun.decomposeLatency = true;
    const Outcome out = runExperiment(longRun);
    const double thrSim = out.throughputPerSec / 1e6; // per us

    const std::string configTag =
        " (arch " + std::to_string(static_cast<int>(exp.arch)) +
        ", N=" + std::to_string(exp.conversations) +
        ", X=" + fmt(exp.computeUs) + "us)";

    // Engine 2: the exact GTPN solution.
    const models::LocalSolution gtpn = models::solveLocal(
        exp.arch, exp.conversations, exp.computeUs);
    if (relDiff(thrSim, gtpn.throughputPerUs) > opts.gtpnRelTolerance) {
        v.push_back(
            {"differential.gtpn",
             "DES throughput " + fmt(thrSim) + "/us vs exact GTPN " +
                 fmt(gtpn.throughputPerUs) + "/us, rel diff " +
                 fmt(relDiff(thrSim, gtpn.throughputPerUs)) + " > " +
                 fmt(opts.gtpnRelTolerance) + configTag});
    }

    // Engine 3: exact MVA of the product-form network.
    const double thrMva = models::mvaLocalThroughput(
        exp.arch, exp.conversations, exp.computeUs);
    if (relDiff(thrSim, thrMva) > opts.mvaRelTolerance) {
        v.push_back({"differential.mva",
                     "DES throughput " + fmt(thrSim) + "/us vs MVA " +
                         fmt(thrMva) + "/us, rel diff " +
                         fmt(relDiff(thrSim, thrMva)) + " > " +
                         fmt(opts.mvaRelTolerance) + configTag});
    }

    // Bottleneck cross-check, only when both engines are decisive.
    // Architecture I has no MP, so there is nothing to disagree on.
    if (exp.arch != models::Arch::I &&
        out.decomposition.messages > 0) {
        const analysis::GtpnSaturation gs = analysis::gtpnSaturation(
            exp.arch, exp.conversations, exp.computeUs);
        const auto shares = analysis::classShares(out.decomposition);
        auto share = [&](analysis::ResourceClass cls) {
            const auto it = shares.find(cls);
            return it == shares.end() ? 0.0 : it->second;
        };
        const double traceHost = share(analysis::ResourceClass::Host);
        const double traceMp = share(analysis::ResourceClass::Mp);
        const bool modelDecisive =
            std::max(gs.hostUtil, gs.mpUtil) >
            opts.decisiveRatio * std::min(gs.hostUtil, gs.mpUtil);
        const bool traceDecisive =
            std::max(traceHost, traceMp) >
            opts.decisiveRatio * std::min(traceHost, traceMp);
        if (modelDecisive && traceDecisive) {
            const bool modelSaysMp = gs.mpUtil > gs.hostUtil;
            const bool traceSaysMp = traceMp > traceHost;
            if (modelSaysMp != traceSaysMp) {
                v.push_back(
                    {"differential.bottleneck",
                     "exact GTPN saturates " +
                         std::string(modelSaysMp ? "mp" : "host") +
                         " (host " + fmt(gs.hostUtil) + ", mp " +
                         fmt(gs.mpUtil) +
                         ") but the measured critical path blames " +
                         std::string(traceSaysMp ? "mp" : "host") +
                         " (host " + fmt(traceHost) + "us, mp " +
                         fmt(traceMp) + "us)" + configTag});
            }
        }
    }
    return v;
}

} // namespace hsipc::sim::check
