#include "core/models/solution.hh"

#include <algorithm>
#include <cmath>

#include "common/json.hh"
#include "common/logging.hh"
#include "core/gtpn/analyzer.hh"
#include "core/models/local_model.hh"

namespace hsipc::models
{

namespace
{

/** The 40-byte copy time on the M68000 (chapter 4), microseconds. */
constexpr double extraCopyUs = 220.0;

// The fixed point's stopping rule is fixed; none of it is a setting.
constexpr int maxIterations = 60;     //!< reaching this cap is an error
constexpr double maxResidual = 1e-3;  //!< |F(S_d) - S_d| / S_d at the end

/** Pick a time scale keeping >= 20 units in @p minMean. */
double
autoScale(double min_mean)
{
    return std::max(1.0, std::floor(min_mean / 20.0));
}

double
clientMinMean(const NonlocalClientParams &p, double sd)
{
    double m = std::min({p.sendSyscall, p.dmaOut, p.dmaIn,
                         p.intrService, sd});
    if (p.arch != Arch::I)
        m = std::min(m, p.mpSend + p.dispatch);
    return m;
}

double
serverMinMean(const NonlocalServerParams &p, double cd, double x)
{
    double m = std::min({p.recvSyscall, p.match, p.replyBase + x, cd});
    if (p.arch != Arch::I)
        m = std::min({m, p.mpRecv, p.mpReply});
    return m;
}

} // namespace

double
localAutoScale(const LocalParams &p, double x)
{
    return autoScale(p.arch == Arch::I
        ? std::min({p.uniSend, p.uniRecv, p.uniMatchReply + x})
        : std::min({p.sendSyscall, p.recvSyscall, p.mpSend, p.mpRecv,
                    p.mpMatch, p.hostReplyBase + x, p.mpReply}));
}

LocalSolution
solveLocalCustom(const LocalParams &params, int conversations,
                 double computeTime, int hostTokens, double timeScale)
{
    const double scale = timeScale > 0.0
        ? timeScale
        : localAutoScale(params, computeTime);

    const LocalModel m = buildLocalModel(params, conversations,
                                         computeTime, scale,
                                         hostTokens);
    const gtpn::AnalyzerResult r = gtpn::analyze(m.net);
    hsipc_assert(!r.deadlock);

    LocalSolution out;
    out.throughputPerUs = m.throughputPerUs(r.usage(lambdaResource));
    out.states = r.numStates;
    out.converged = r.converged;
    return out;
}

LocalSolution
solveLocal(Arch arch, int conversations, double computeTime,
           double timeScale)
{
    return solveLocalCustom(localParams(arch), conversations,
                            computeTime, 1, timeScale);
}

NonlocalSolution
solveNonlocalCustom(const NonlocalClientParams &cp,
                    const NonlocalServerParams &sp, int conversations,
                    double computeTime, int hostTokens)
{
    const double x = computeTime;
    const double n = static_cast<double>(conversations);

    // Initial S_d: the server-side communication time plus the
    // computation in the conversation (§6.6.3).
    double sd = sp.receivePath() + sp.match + sp.replyBase + x +
                sp.mpReply + sp.dmaIn + sp.dmaOut;
    const double sc = sp.receivePath();

    NonlocalSolution out;

    for (int iter = 1;; ++iter) {
        out.iterations = iter;

        // Client node with the current surrogate S_d.
        const double cscale = autoScale(clientMinMean(cp, sd));
        const ClientModel cm =
            buildClientModel(cp, conversations, sd, hostTokens, cscale);
        const gtpn::AnalyzerResult cr = gtpn::analyze(cm.net);
        hsipc_assert(!cr.deadlock);
        out.throughputPerUs = cm.throughputPerUs(cr.usage(lambdaResource));
        out.clientStates = cr.numStates;
        hsipc_assert(out.throughputPerUs > 0.0);

        // Little's law at the client node: mean cycle T = N / Lambda,
        // client busy time C_d' = T - S_d, and the wait seen by the
        // server excludes the overlapped receive processing S_c.
        const double t = n / out.throughputPerUs;
        out.clientBusy = t - sd;
        double cd = out.clientBusy - sc;

        // Server node with the surrogate C_d.
        const double sscale_floor =
            autoScale(serverMinMean(sp, std::max(cd, 1.0), x));
        cd = std::max(cd, sscale_floor);
        const ServerModel sm = buildServerModel(sp, conversations, cd, x,
                                                hostTokens, sscale_floor);
        const gtpn::AnalyzerResult sr = gtpn::analyze(sm.net);
        hsipc_assert(!sr.deadlock);
        out.serverStates = sr.numStates;

        const double arrivals_per_us =
            sr.firingRate[static_cast<std::size_t>(sm.arrival)] /
            sm.timeScale;
        const double customers =
            sr.placeOccupancy[static_cast<std::size_t>(sm.queue)];
        hsipc_assert(arrivals_per_us > 0.0);

        // Little's law at the server node, plus the packet DMA times
        // accounted outside the model (§6.6.4).
        const double sd_new =
            customers / arrivals_per_us + sp.dmaIn + sp.dmaOut;

        // Stop on the map's relative residual, reporting the S_d this
        // iteration evaluated; otherwise take a damped step.
        out.residual = std::abs(sd_new - sd) / sd;
        if (out.residual < maxResidual)
            break;
        if (iter == maxIterations)
            hsipc_panic("non-local fixed point did not converge: residual "
                        "|F(S_d) - S_d| / S_d = " +
                        jsonNumber(out.residual) + " after " +
                        std::to_string(iter) + " iterations");
        sd = 0.5 * (sd + sd_new);
    }

    out.converged = true;
    out.serverDelay = sd;
    return out;
}

NonlocalSolution
solveNonlocal(Arch arch, int conversations, double computeTime)
{
    return solveNonlocalCustom(nonlocalClientParams(arch),
                               nonlocalServerParams(arch), conversations,
                               computeTime, 1);
}

NonlocalClientParams
validationClientParams()
{
    NonlocalClientParams p = nonlocalClientParams(Arch::II);
    // Outgoing packets cross the memory-mapped network buffer once
    // more on the MP; inbound completion processing reads it back.
    p.mpSend += extraCopyUs;
    p.intrService += extraCopyUs;
    return p;
}

NonlocalServerParams
validationServerParams()
{
    NonlocalServerParams p = nonlocalServerParams(Arch::II);
    p.match += extraCopyUs;
    p.mpReply += extraCopyUs;
    return p;
}

} // namespace hsipc::models
