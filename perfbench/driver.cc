/**
 * @file
 * Host-time benchmark driver.
 *
 * One thread issues a closed loop of calls to the public entry points
 * of the analytic half (models::solveLocal / solveLocalCustom /
 * solveNonlocal / solveNonlocalCustom, and gtpn::analyze in the traced
 * probe) and of the simulator (sim::runExperiment).  Each call is timed
 * from outside and its result checked: analytic results must have
 * converged with a throughput in (0, 1/bottleneck demand] and match the
 * committed reference; simulator outcomes must pass
 * sim::check::checkOutcome and match the reference digest of
 * outcomeJson + topoJson bit for bit.
 *
 * A workload is a list of slots; the seed picks one candidate job per
 * slot and the call order.  Every candidate of every slot has a line in
 * the reference file, so every possible draw is checked.
 *
 *   perfdriver --workload W --seed N --seconds T --trace 0|1
 *              --reference FILE [--out DIR] [--setup-only]
 *   perfdriver --write-reference W      (prints reference lines)
 *
 * The driver prints "ready" once set-up is done (job list built, one
 * warm-up call made), then human-readable lines and, last, one JSON
 * object with the measured metrics.  See README.md next to this file.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/gtpn/analyzer.hh"
#include "core/models/local_model.hh"
#include "core/models/solution.hh"
#include "sim/check/invariants.hh"
#include "sim/kernel/ipc_sim.hh"
#include "sim/runner/sweep_runner.hh"

namespace
{

using namespace hsipc;
using models::Arch;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Workload definition ----------------------------------------------

/** Server computation X values of Fig 6.18 / Tables 6.24-6.25, us. */
const std::vector<double> kFig618X = {0, 570, 1140, 1710, 2850, 5700,
                                      11400};
/** X values of the Fig 6.15 validation sweep, us. */
const std::vector<double> kFig615X = {0, 1140, 2850, 5700, 11400};
/** Simulator seeds a draw may choose. */
constexpr int kDesSeeds = 8;

/**
 * Reference tolerances (relative, on round trips per microsecond).
 * Local solves stop on a 1e-10 change of pi, so 1e-4 admits a more
 * accurate Markov solve yet catches any wrong net (a wrong stage mean
 * moves throughput by a percent or more).  The non-local fixed point
 * stops on a 1e-3 relative change of S_d, so a reused graph or a warm
 * start may land elsewhere inside that band: 2e-3.
 */
constexpr double kLocalTolerance = 1e-4;
constexpr double kNonlocalTolerance = 2e-3;

enum class Kind { Local, Nonlocal, Validation, Des };

/** One public call, fully determined. */
struct Job
{
    Kind kind = Kind::Local;
    std::string key; //!< identity in the reference file
    Arch arch = Arch::II;
    int n = 1;
    double x = 0;
    int hosts = 1;
    sim::Experiment exp; //!< Des only
};

/** A workload slot: the seed picks one of its candidates. */
using Slot = std::vector<Job>;

std::string
fmtX(double x)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", x);
    return buf;
}

Job
localJob(Arch a, int n, double x, int hosts)
{
    Job j;
    j.kind = Kind::Local;
    j.arch = a;
    j.n = n;
    j.x = x;
    j.hosts = hosts;
    j.key = "local/a" + std::to_string(int(a)) + "/n" + std::to_string(n) +
        "/x" + fmtX(x) + "/h" + std::to_string(hosts);
    return j;
}

Job
nonlocalJob(Arch a, int n, double x)
{
    Job j;
    j.kind = Kind::Nonlocal;
    j.arch = a;
    j.n = n;
    j.x = x;
    j.key = "nonlocal/a" + std::to_string(int(a)) + "/n" +
        std::to_string(n) + "/x" + fmtX(x);
    return j;
}

/** §6.8 validation configuration: Arch II, 2 hosts, extra copy. */
Job
validationJob(int n, double x)
{
    Job j;
    j.kind = Kind::Validation;
    j.arch = Arch::II;
    j.n = n;
    j.x = x;
    j.hosts = 2;
    j.key = "validation/n" + std::to_string(n) + "/x" + fmtX(x);
    return j;
}

Job
desJob(const std::string &medium, const sim::Experiment &e)
{
    Job j;
    j.kind = Kind::Des;
    j.exp = e;
    j.key = "des/" + medium + "/a" + std::to_string(int(e.arch)) + "/n" +
        std::to_string(e.conversations) + "/x" + fmtX(e.computeUs) +
        "/N" + std::to_string(e.topo.nodes) + "/s" +
        std::to_string(e.seed);
    return j;
}

/** Two-node run on one of the legacy media (no topology layer). */
sim::Experiment
twoNode(const std::string &medium, Arch a)
{
    sim::Experiment e;
    e.arch = a;
    e.local = false;
    e.conversations = 4;
    e.computeUs = 2850;
    e.measureUs = 500000;
    if (medium == "wire") {
        e.wireUs = 100;
    } else if (medium == "ring") {
        e.useTokenRing = true;
    } else if (medium == "lossy") {
        e.reliableProtocol = true;
        e.lossRate = 0.02;
    } else if (medium == "open") {
        e.conversations = 2; // server pool
        e.computeUs = 6000;
        e.arrivalMode = 1;
        e.arrivalRatePerSec = 100;
        e.deadlineUs = 40000;
    }
    return e;
}

sim::Experiment
validationRun(int n, double x)
{
    sim::Experiment e;
    e.arch = Arch::II;
    e.local = false;
    e.conversations = n;
    e.computeUs = x;
    e.hostsPerNode = 2;
    e.extraCopy = true;
    e.measureUs = 500000;
    return e;
}

/**
 * N-node fleet as in bench/beyond_fleet, one conversation per node.
 * Warm-up and measurement windows shrink as 1/N so every fleet run
 * costs about the same number of events and p90, which falls among the
 * fleets, does not depend on which fleet sizes sort next to it.
 */
sim::Experiment
fleet(int kind, int nodes)
{
    sim::Experiment e;
    e.arch = Arch::III;
    e.local = false;
    e.conversations = nodes;
    e.computeUs = 1710;
    e.warmupUs = 0.8e6 / nodes;
    e.measureUs = 12e6 / nodes;
    e.topo.nodes = nodes;
    e.topo.kind = kind;
    e.topo.linkLatencyUs = 50;
    e.topo.switchLatencyUs = 20;
    e.topo.placement = 1; // round-robin neighbours
    return e;
}

constexpr Arch kArchs[] = {Arch::I, Arch::II, Arch::III, Arch::IV};

/** One job per slot: the seed then chooses only the call order. */
void
addFixed(std::vector<Slot> &slots, const Job &j)
{
    slots.push_back({j});
}

/** @p copies slots whose candidates differ only in the simulator seed. */
void
addSeeded(std::vector<Slot> &slots, const std::string &medium,
          sim::Experiment e, int copies = 1)
{
    Slot s;
    for (int seed = 1; seed <= kDesSeeds; ++seed) {
        e.seed = static_cast<std::uint64_t>(seed);
        s.push_back(desJob(medium, e));
    }
    slots.insert(slots.end(), copies, s);
}

/*
 * The model workloads run one conversation count at a single X per
 * architecture: those nets have at most 30 states, and a full row of
 * them put call_ms_p50 on the edge between sub-millisecond calls and
 * the next class, where it swung by 20 % from run to run.  The counts
 * below put p50 and p90 inside classes of similar calls.
 */

std::vector<Slot>
modelLocalSlots()
{
    std::vector<Slot> slots;
    // The Fig 6.18 grid: 2-3 conversations at every X, 1 at one X.
    for (Arch a : kArchs) {
        addFixed(slots, localJob(a, 1, 2850, 1));
        for (int n = 2; n <= 3; ++n)
            for (double x : kFig618X)
                addFixed(slots, localJob(a, n, x, 1));
    }
    // Large nets: 6,336 states at n=4, and the Fig 7.1 two-host net
    // with 10,009 states.
    addFixed(slots, localJob(Arch::III, 4, 1710, 1));
    addFixed(slots, localJob(Arch::II, 4, 1710, 2));
    return slots;
}

std::vector<Slot>
modelNonlocalSlots()
{
    std::vector<Slot> slots;
    for (Arch a : kArchs) {
        addFixed(slots, nonlocalJob(a, 1, 2850));
        for (double x : kFig618X)
            addFixed(slots, nonlocalJob(a, 2, x));
        addFixed(slots, nonlocalJob(a, 3, 2850));
    }
    addFixed(slots, nonlocalJob(Arch::I, 4, 2850));
    addFixed(slots, nonlocalJob(Arch::II, 4, 2850));
    // The §6.8 validation configuration, at every Fig 6.15 X for n=2.
    for (int n = 1; n <= 4; ++n) {
        if (n == 2) {
            for (double x : kFig615X)
                addFixed(slots, validationJob(n, x));
        } else {
            addFixed(slots, validationJob(n, 2850));
        }
    }
    return slots;
}

std::vector<Slot>
desNetworkSlots()
{
    std::vector<Slot> slots;
    for (Arch a : kArchs)
        for (const char *m : {"wire", "ring", "lossy", "open"})
            addSeeded(slots, m, twoNode(m, a), 2);
    for (int n = 1; n <= 4; ++n)
        for (double x : {1140.0, 5700.0})
            addSeeded(slots, "valid", validationRun(n, x));
    for (int nodes : {8, 16, 24, 32})
        for (int kind = 0; kind <= 1; ++kind)
            addSeeded(slots, kind == 0 ? "mesh" : "switch",
                      fleet(kind, nodes));
    return slots;
}

bool
workloadSlots(const std::string &w, std::vector<Slot> &out)
{
    if (w == "model_local")
        out = modelLocalSlots();
    else if (w == "model_nonlocal")
        out = modelNonlocalSlots();
    else if (w == "des_network")
        out = desNetworkSlots();
    else
        return false;
    return true;
}

/** SplitMix64: the benchmark's own generator, independent of the library. */
class Draw
{
  public:
    explicit Draw(std::uint64_t seed) : s(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    std::size_t below(std::size_t n) { return next() % n; }

  private:
    std::uint64_t s;
};

/** The seed's job list: one candidate per slot, in a seeded order. */
std::vector<Job>
drawJobs(const std::vector<Slot> &slots, std::uint64_t seed)
{
    Draw d(seed);
    std::vector<Job> jobs;
    for (const Slot &s : slots)
        jobs.push_back(s[d.below(s.size())]);
    for (std::size_t i = jobs.size(); i > 1; --i)
        std::swap(jobs[i - 1], jobs[d.below(i)]);
    return jobs;
}

// --- Checks ------------------------------------------------------------

/**
 * Mirror of models::solveLocalCustom's automatic time scale, so the
 * traced probe rebuilds exactly the net the solver analyzes (the probe
 * cross-check proves the mirror stays right).
 */
double
localTimeScale(const models::LocalParams &p, double x)
{
    const double m = p.arch == Arch::I
        ? std::min({p.uniSend, p.uniRecv, p.uniMatchReply + x})
        : std::min({p.sendSyscall, p.recvSyscall, p.mpSend, p.mpRecv,
                    p.mpMatch, p.hostReplyBase + x, p.mpReply});
    return std::max(1.0, std::floor(m / 20.0));
}

/**
 * Round trips per microsecond no closed local net can exceed: every
 * round trip holds the host for its host stages (shared by @p hosts
 * tokens) and the single MP for its MP stages.  Saturated nets reach
 * the bound, so the check allows the solver's 1e-6 relative slack.
 */
double
localThroughputBound(const models::LocalParams &p, double x, int hosts)
{
    if (p.arch == Arch::I)
        return hosts / (p.uniSend + p.uniRecv + p.uniMatchReply + x);
    const double host = p.sendSyscall + p.recvSyscall + p.hostReplyBase + x;
    const double mp = p.mpSend + p.mpRecv + p.mpMatch + p.mpReply;
    return 1.0 / std::max(host / hosts, mp);
}

/**
 * The same for the non-local client net, whose Lambda stage is the
 * host's send syscall: one send per round trip on @p hosts tokens.
 */
double
nonlocalThroughputBound(const models::NonlocalClientParams &p, int hosts)
{
    return hosts / p.sendSyscall;
}

std::string
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
}

/** What one call produced. */
struct Result
{
    double seconds = 0;
    std::string problem; //!< empty when the call is correct
    double throughput = 0;
    std::string digest;
    models::NonlocalSolution fp; //!< Nonlocal/Validation only
    sim::Outcome outcome;        //!< Des only
};

/** Reference lines: key -> throughput (analytic) or digest (DES). */
using Reference = std::map<std::string, std::string>;

/** The value a reference line records for @p j. */
std::string
referenceValue(const Job &j, const Result &r)
{
    if (j.kind == Kind::Des)
        return r.digest;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", r.throughput);
    return buf;
}

std::string
referenceProblem(const Reference &ref, const Job &j, const Result &r)
{
    const auto it = ref.find(j.key);
    if (it == ref.end())
        return "no reference";
    const std::string got = referenceValue(j, r);
    if (j.kind == Kind::Des) {
        return got == it->second ? ""
            : "digest " + got + " differs from reference " + it->second;
    }
    const double want = std::stod(it->second);
    const double tol =
        j.kind == Kind::Local ? kLocalTolerance : kNonlocalTolerance;
    const double rel = std::abs(r.throughput - want) / std::abs(want);
    return rel <= tol ? ""
        : "throughput " + got + " differs from reference " + it->second +
            " (rel " + std::to_string(rel) + ")";
}

/**
 * Issue @p j, timing only the public call, and check its result
 * against the invariants and, when @p ref is given, the reference.
 */
Result
runJob(const Job &j, const Reference *ref, bool profile)
{
    Result r;
    if (j.kind == Kind::Des) {
        sim::Experiment e = j.exp;
        e.engineProfile = profile;
        const Clock::time_point t0 = Clock::now();
        r.outcome = sim::runExperiment(e);
        r.seconds = secondsSince(t0);
        r.digest = fnv1a(sim::outcomeJson(r.outcome) + "\n" +
                         sim::topoJson(r.outcome));
        r.problem = sim::check::formatViolations(
            sim::check::checkOutcome(e, r.outcome));
    } else {
        double bound = 0;
        bool converged = false;
        if (j.kind == Kind::Local) {
            const models::LocalParams p = models::localParams(j.arch);
            const Clock::time_point t0 = Clock::now();
            const models::LocalSolution s = j.hosts == 1
                ? models::solveLocal(j.arch, j.n, j.x)
                : models::solveLocalCustom(p, j.n, j.x, j.hosts);
            r.seconds = secondsSince(t0);
            r.throughput = s.throughputPerUs;
            converged = s.converged;
            bound = localThroughputBound(p, j.x, j.hosts);
        } else {
            const bool v = j.kind == Kind::Validation;
            const models::NonlocalClientParams cp = v
                ? models::validationClientParams()
                : models::nonlocalClientParams(j.arch);
            const Clock::time_point t0 = Clock::now();
            r.fp = v ? models::solveNonlocalCustom(
                           cp, models::validationServerParams(), j.n, j.x,
                           j.hosts)
                     : models::solveNonlocal(j.arch, j.n, j.x);
            r.seconds = secondsSince(t0);
            r.throughput = r.fp.throughputPerUs;
            converged = r.fp.converged;
            bound = nonlocalThroughputBound(cp, j.hosts);
        }
        if (!converged)
            r.problem = "not converged";
        else if (!(r.throughput > 0 && r.throughput <= bound * (1 + 1e-6)))
            r.problem = "throughput " + referenceValue(j, r) +
                " outside (0, " + std::to_string(bound) + "]";
    }
    if (r.problem.empty() && ref)
        r.problem = referenceProblem(*ref, j, r);
    return r;
}

// --- Tracing -----------------------------------------------------------

/** One driver-side span, kept in memory until the run ends. */
struct Span
{
    int id = 0;
    int parent = -1;
    std::string name;
    std::string job;
    double startUs = 0;
    double endUs = 0;
};

class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : t0(origin) {}

    int
    open(const std::string &name, int parent, const std::string &job)
    {
        Span s;
        s.id = static_cast<int>(spans.size());
        s.parent = parent;
        s.name = name;
        s.job = job;
        s.startUs = nowUs();
        spans.push_back(s);
        return s.id;
    }

    /** Close span @p id and return its duration in seconds. */
    double
    close(int id)
    {
        Span &s = spans[static_cast<std::size_t>(id)];
        s.endUs = nowUs();
        return (s.endUs - s.startUs) * 1e-6;
    }

    /** Set the duration of span @p id to @p seconds of measured time. */
    void
    closeAfter(int id, double seconds)
    {
        Span &s = spans[static_cast<std::size_t>(id)];
        s.endUs = s.startUs + seconds * 1e6;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream f(path);
        f << "[\n";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.3f, \"end_us\": %.3f",
                          s.startUs, s.endUs);
            f << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
              << ", \"name\": \"" << s.name << "\", \"job\": \"" << s.job
              << "\", \"start_us\": " << buf << "}"
              << (i + 1 < spans.size() ? ",\n" : "\n");
        }
        f << "]\n";
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() - t0)
            .count();
    }

    Clock::time_point t0;
    std::vector<Span> spans;
};

// --- Metrics -----------------------------------------------------------

/** Linear-interpolation quantile of @p v (sorted in place). */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/** Ordered name -> (value, unit) list, printed as the result JSON. */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        items.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::string s = "{";
        for (std::size_t i = 0; i < items.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g", items[i].value);
            s += (i ? ", \"" : "\"") + items[i].name + "\": {\"value\": " +
                buf + ", \"unit\": \"" + items[i].unit + "\"}";
        }
        return s + "}";
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items;
};

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Event-origin classes: profile track names without node prefix. */
const std::vector<std::string> kTrackClasses = {
    "sim", "wire", "host", "mp", "busTcb", "busKb", "nicIn", "nicOut",
    "other"};

/** The class of track @p name, e.g. "n12.host0" -> "host". */
std::string
trackClass(const std::string &name)
{
    std::string c = name;
    const std::size_t dot = c.find('.');
    if (dot != std::string::npos && c[0] == 'n')
        c = c.substr(dot + 1);
    while (!c.empty() && std::isdigit(static_cast<unsigned char>(c.back())))
        c.pop_back();
    return std::count(kTrackClasses.begin(), kTrackClasses.end(), c)
        ? c : "other";
}

/** Simulated seconds a run advances. */
double
simSeconds(const sim::Experiment &e)
{
    return (e.warmupUs + e.measureUs) * 1e-6;
}

// --- Runs ----------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool setupOnly = false;
    std::string reference;
    std::string outDir = ".";
    std::string writeReference;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--reference")
            a.reference = v;
        else if (k == "--out")
            a.outDir = v;
        else if (k == "--write-reference")
            a.writeReference = v;
        else
            return false;
    }
    return true;
}

bool
loadReference(const std::string &path, Reference &ref)
{
    std::ifstream f(path);
    if (!f)
        return false;
    std::string line;
    while (std::getline(f, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string k, v;
        if (ls >> k >> v)
            ref[k] = v;
    }
    return true;
}

/**
 * One mid-size warm-up call of each kind the workload issues, so lazy
 * set-up (allocator arenas, the EventCallback spill pool) is done
 * before timing starts; it counts into set-up time, not into work.
 */
void
warmUp(const std::vector<Job> &jobs)
{
    std::set<Kind> kinds;
    for (const Job &j : jobs)
        kinds.insert(j.kind);
    if (kinds.count(Kind::Local))
        models::solveLocal(Arch::II, 3, 1140);
    if (kinds.count(Kind::Nonlocal) || kinds.count(Kind::Validation))
        models::solveNonlocal(Arch::II, 2, 1140);
    if (kinds.count(Kind::Des)) {
        for (sim::Experiment e : {twoNode("wire", Arch::II), fleet(0, 32)}) {
            e.warmupUs = 10000;
            e.measureUs = 50000;
            sim::runExperiment(e);
        }
    }
}

/** The machine and build, as a JSON object recorded in every result. */
std::string
machineJson()
{
    std::string cpu = "unknown";
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0) {
            cpu = line.substr(line.find(':') + 2);
            break;
        }
    }
    std::erase_if(cpu, [](char c) { return c == '"' || c == '\\'; });
#ifdef __clang__
    const std::string compiler = "clang " __clang_version__;
#else
    const std::string compiler = "g++ " __VERSION__;
#endif
    return "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
        ", \"cpu\": \"" + cpu + "\", \"compiler\": \"" + compiler +
        "\", \"build\": \"" PERFBENCH_BUILD_TYPE "\"}";
}

int
writeReference(const std::string &workload)
{
    std::vector<Slot> slots;
    if (!workloadSlots(workload, slots))
        return 2;
    std::set<std::string> done;
    for (const Slot &s : slots) {
        for (const Job &j : s) {
            if (!done.insert(j.key).second)
                continue;
            const Result r = runJob(j, nullptr, false);
            if (!r.problem.empty()) {
                std::fprintf(stderr, "%s: %s\n", j.key.c_str(),
                             r.problem.c_str());
                return 1;
            }
            std::printf("%s %s\n", j.key.c_str(),
                        referenceValue(j, r).c_str());
            std::fflush(stdout);
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr, "usage: see perfbench/README.md\n");
        return 2;
    }
    if (!args.writeReference.empty())
        return writeReference(args.writeReference);

    std::vector<Slot> slots;
    if (!workloadSlots(args.workload, slots)) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    Reference ref;
    if (!args.setupOnly && !loadReference(args.reference, ref)) {
        std::fprintf(stderr, "cannot read reference '%s'\n",
                     args.reference.c_str());
        return 2;
    }
    const std::vector<Job> jobs = drawJobs(slots, args.seed);
    warmUp(jobs);
    std::printf("ready\n");
    std::fflush(stdout);
    if (args.setupOnly)
        return 0;

    // Untraced passes: the whole job list back to back, at least three
    // times (so every workload issues >= 100 calls) and then while
    // another pass is expected to end within the measuring time.
    const Clock::time_point start = Clock::now();
    std::vector<double> passSeconds, callMs;
    std::vector<Result> firstPass;
    double simAll = 0, desAll = 0;
    long attempted = 0;
    std::vector<std::string> failures;
    for (;;) {
        double pass = 0;
        for (const Job &j : jobs) {
            Result r = runJob(j, &ref, false);
            pass += r.seconds;
            callMs.push_back(r.seconds * 1e3);
            if (j.kind == Kind::Des) {
                simAll += simSeconds(j.exp);
                desAll += r.seconds;
            }
            ++attempted;
            if (!r.problem.empty())
                failures.push_back(j.key + ": " + r.problem);
            if (passSeconds.empty())
                firstPass.push_back(std::move(r));
        }
        passSeconds.push_back(pass);
        if (args.trace ||
            (passSeconds.size() >= 3 &&
             secondsSince(start) + quantile(passSeconds, 0.5) > args.seconds))
            break;
    }

    std::printf("machine: %s\n", machineJson().c_str());
    std::printf("workload=%s seed=%" PRIu64 " passes=%zu calls/pass=%zu\n",
                args.workload.c_str(), args.seed, passSeconds.size(),
                jobs.size());

    Metrics m;
    bool crossCheckOk = true;
    if (!args.trace) {
        m.set("wall_s", quantile(passSeconds, 0.5), "s");
        m.set("call_ms_p50", quantile(callMs, 0.5), "ms");
        m.set("call_ms_p90", quantile(callMs, 0.9), "ms");
        m.set("peak_rss_mb", peakRssMb(), "MB");
    } else {
        // Traced pass: driver spans around every public call, the
        // engine profile on every simulation, and the gtpn probe that
        // rebuilds each local net and analyzes it directly.
        SpanLog spans(start);
        const int passSpan = spans.open("pass.traced", -1, "");
        double tracedWall = 0, buildS = 0, analyzeS = 0;
        double states = 0, maxStates = 0, sweeps = 0, stateSweeps = 0;
        long analyzeCalls = 0, gtpnNonconverged = 0;
        std::string dump = "{\n  \"workload\": \"" + args.workload +
            "\",\n  \"seed\": " + std::to_string(args.seed) +
            ",\n  \"machine\": " + machineJson() + ",\n  \"calls\": [";
        std::vector<Result> traced;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const Job &j = jobs[i];
            const int call = spans.open(
                j.kind == Kind::Des ? "sim.runExperiment"
                : j.kind == Kind::Local
                    ? (j.hosts == 1 ? "models.solveLocal"
                                    : "models.solveLocalCustom")
                : j.kind == Kind::Nonlocal ? "models.solveNonlocal"
                                           : "models.solveNonlocalCustom",
                passSpan, j.key);
            Result r = runJob(j, &ref, true);
            spans.closeAfter(call, r.seconds);
            tracedWall += r.seconds;
            ++attempted;
            if (!r.problem.empty())
                failures.push_back(j.key + " (traced): " + r.problem);

            dump += std::string(i ? "," : "") + "\n    {\"job\": \"" +
                j.key + "\", \"untraced_s\": " +
                std::to_string(firstPass[i].seconds) +
                ", \"traced_s\": " + std::to_string(r.seconds);
            if (j.kind == Kind::Des) {
                dump += ", \"events\": " +
                    std::to_string(r.outcome.engineProfile.pops) +
                    ", \"peak_pending\": " +
                    std::to_string(r.outcome.engineProfile.maxHeapSize);
            }
            if (j.kind == Kind::Local) {
                const int probe = spans.open("probe", passSpan, j.key);
                const models::LocalParams p = models::localParams(j.arch);
                int s = spans.open("models.buildLocalModel", probe, j.key);
                const models::LocalModel lm = models::buildLocalModel(
                    p, j.n, j.x, localTimeScale(p, j.x), j.hosts);
                buildS += spans.close(s);
                s = spans.open("gtpn.analyze", probe, j.key);
                const gtpn::AnalyzerResult ar = gtpn::analyze(lm.net);
                analyzeS += spans.close(s);
                spans.close(probe);
                ++analyzeCalls;
                states += static_cast<double>(ar.numStates);
                maxStates = std::max(maxStates,
                                     static_cast<double>(ar.numStates));
                sweeps += ar.sweeps;
                stateSweeps += static_cast<double>(ar.numStates) * ar.sweeps;
                gtpnNonconverged += !ar.converged;
                const double tp =
                    lm.throughputPerUs(ar.usage(models::lambdaResource));
                if (tp != r.throughput || tp != firstPass[i].throughput) {
                    crossCheckOk = false;
                    failures.push_back(j.key + ": probe throughput " +
                                       std::to_string(tp) +
                                       " != solveLocal");
                }
                dump += ", \"states\": " + std::to_string(ar.numStates) +
                    ", \"sweeps\": " + std::to_string(ar.sweeps);
            }
            dump += "}";
            traced.push_back(std::move(r));
        }
        spans.close(passSpan);

        // Host times come from the untraced pass; work counts from the
        // traced one (they are identical by construction).
        const double untracedWall = passSeconds.front();
        double localS = 0, nonlocalS = 0, desS = 0, simS = 0;
        long localCalls = 0, nonlocalCalls = 0, desCalls = 0;
        double fpIter = 0, fpStates = 0;
        long fpNonconverged = 0;
        double events = 0, peakPending = 0, spills = 0;
        std::map<std::string, std::pair<double, double>> tracks;
        double roundTrips = 0, hostUtil = 0, mpUtil = 0, busUtil = 0;
        double stalls = 0, rpcOffered = 0, rpcCompleted = 0;
        double dataTx = 0, retx = 0, faultDrops = 0;
        double linkMsgs = 0, routerFwd = 0, routerPeak = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const Job &j = jobs[i];
            const Result &r = traced[i];
            const double s = firstPass[i].seconds;
            if (j.kind == Kind::Local) {
                localS += s;
                ++localCalls;
            } else if (j.kind != Kind::Des) {
                nonlocalS += s;
                ++nonlocalCalls;
                fpIter += r.fp.iterations;
                fpStates += static_cast<double>(r.fp.clientStates +
                                                r.fp.serverStates);
                fpNonconverged += !r.fp.converged;
            } else {
                desS += s;
                ++desCalls;
                simS += simSeconds(j.exp);
                const sim::Outcome &o = r.outcome;
                const obs::EngineProfile &ep = o.engineProfile;
                events += static_cast<double>(ep.pops);
                peakPending = std::max(
                    peakPending, static_cast<double>(ep.maxHeapSize));
                spills += static_cast<double>(ep.spillConstructs);
                for (const obs::EngineProfile::Track &t : ep.tracks) {
                    auto &acc = tracks[trackClass(t.name)];
                    acc.first += static_cast<double>(t.events);
                    acc.second += t.wallNs.mean() *
                        static_cast<double>(t.events) * 1e-6;
                }
                roundTrips += static_cast<double>(o.roundTrips);
                hostUtil += o.hostUtil;
                mpUtil += o.mpUtil;
                busUtil += o.busUtil;
                stalls += static_cast<double>(o.bufferStalls);
                rpcOffered += static_cast<double>(o.rpc.offered);
                rpcCompleted += static_cast<double>(o.rpc.completed);
                dataTx += static_cast<double>(o.netTotals.dataTransmissions);
                retx += static_cast<double>(o.netTotals.retransmissions);
                faultDrops += static_cast<double>(o.netTotals.pktsDropped);
                for (const sim::topo::LinkLedger &l : o.topo.links)
                    linkMsgs += static_cast<double>(l.msgsIn);
                for (const sim::topo::RouterLedger &rl : o.topo.routers) {
                    routerFwd += static_cast<double>(rl.forwarded);
                    routerPeak = std::max(
                        routerPeak, static_cast<double>(rl.queuePeak));
                }
            }
        }
        const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
        const double nDes = desCalls;

        m.set("bench.calls_per_pass", static_cast<double>(jobs.size()),
              "count");
        m.set("bench.untraced_wall_s", untracedWall, "s");
        m.set("bench.traced_wall_s", tracedWall, "s");
        m.set("bench.trace_overhead_s", tracedWall - untracedWall, "s");
        m.set("models.local_s", localS, "s");
        m.set("models.nonlocal_s", nonlocalS, "s");
        m.set("models.local_calls", localCalls, "count");
        m.set("models.nonlocal_calls", nonlocalCalls, "count");
        m.set("models.fp_iterations", fpIter, "count");
        m.set("models.fp_ms_per_iteration", ratio(nonlocalS * 1e3, fpIter),
              "ms");
        m.set("models.fp_final_states", fpStates, "count");
        m.set("models.fp_nonconverged", fpNonconverged, "count");
        m.set("models.build_s", buildS, "s");
        m.set("gtpn.analyze_calls", analyzeCalls, "count");
        m.set("gtpn.analyze_s", analyzeS, "s");
        m.set("gtpn.states", states, "count");
        m.set("gtpn.max_states", maxStates, "count");
        m.set("gtpn.sweeps", sweeps, "count");
        m.set("gtpn.us_per_state", ratio(analyzeS * 1e6, states), "us");
        m.set("gtpn.ns_per_state_sweep", ratio(analyzeS * 1e9, stateSweeps),
              "ns");
        m.set("gtpn.nonconverged", gtpnNonconverged, "count");
        m.set("des.events", events, "count");
        m.set("des.ns_per_event", ratio(desS * 1e9, events), "ns");
        m.set("des.peak_pending", peakPending, "count");
        m.set("des.spills", spills, "count");
        m.set("des.sim_s_per_host_s", ratio(simS, desS), "s/s");
        for (const std::string &c : kTrackClasses) {
            m.set("des.track." + c + ".events", tracks[c].first, "count");
            m.set("des.track." + c + ".ms", tracks[c].second, "ms");
        }
        m.set("kernel.round_trips", roundTrips, "count");
        m.set("kernel.host_util", ratio(hostUtil, nDes), "fraction");
        m.set("kernel.mp_util", ratio(mpUtil, nDes), "fraction");
        m.set("kernel.bus_util", ratio(busUtil, nDes), "fraction");
        m.set("kernel.buffer_stalls", stalls, "count");
        m.set("kernel.rpc_offered", rpcOffered, "count");
        m.set("kernel.rpc_completed", rpcCompleted, "count");
        m.set("kernel.rpc_goodput_frac", ratio(rpcCompleted, rpcOffered),
              "fraction");
        m.set("net.data_tx", dataTx, "count");
        m.set("net.retransmissions", retx, "count");
        m.set("net.retx_frac", ratio(retx, dataTx), "fraction");
        m.set("net.fault_drops", faultDrops, "count");
        m.set("topo.link_msgs", linkMsgs, "count");
        m.set("topo.router_forwarded", routerFwd, "count");
        m.set("topo.router_queue_peak", routerPeak, "count");

        const std::string stem = args.outDir + "/" + args.workload +
            "-seed" + std::to_string(args.seed);
        spans.write(stem + ".spans.json");
        std::ofstream(stem + ".metrics.json")
            << dump << "\n  ],\n  \"metrics\": " << m.json() << "\n}\n";
        std::printf("traced run: spans %s.spans.json, dump %s.metrics.json,"
                    " probe cross-check %s\n", stem.c_str(), stem.c_str(),
                    crossCheckOk ? "ok" : "FAILED");
    }

    for (const std::string &f : failures)
        std::printf("failed: %s\n", f.c_str());
    // Sample counts and the end-to-end figures that are not contract
    // metrics (failed_frac is 0 on a correct run; sim_s_per_host_s
    // exists only where the workload simulates).
    char info[256];
    std::snprintf(info, sizeof info,
                  "{\"samples\": {\"wall_s\": %zu, \"call_ms_p50\": %zu, "
                  "\"call_ms_p90\": %zu}, \"extra\": {\"failed_frac\": %.6g%s",
                  passSeconds.size(), callMs.size(), callMs.size(),
                  static_cast<double>(failures.size()) /
                      static_cast<double>(attempted),
                  desAll > 0 ? ", \"sim_s_per_host_s\": " : "");
    std::string infoJson = info;
    if (desAll > 0)
        infoJson += std::to_string(simAll / desAll);
    infoJson += "}}";
    std::printf("{\"attempted\": %ld, \"failed\": %zu, \"crosscheck\": %s, "
                "\"metrics\": %s, \"info\": %s}\n",
                attempted, failures.size(), crossCheckOk ? "true" : "false",
                m.json().c_str(), infoJson.c_str());
    return 0;
}
