/**
 * @file
 * Replay a fuzzer repro: load the Experiment from a
 * `fuzz_repro.json` (or any JSON document with an "experiment"
 * member, or a bare experiment object), re-run the invariant oracle
 * — and, when the repro was a differential failure, the three-engine
 * differential check — and report.
 *
 *   fuzz_replay REPRO.json [--differential] [--print]
 *
 * Exit status 0 when the configuration is now clean, 1 when it still
 * violates, 2 on usage, parse or validation errors (an impossible
 * configuration is listed rule by rule, never run).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json_value.hh"
#include "sim/check/differential.hh"
#include "sim/check/experiment_json.hh"
#include "sim/check/invariants.hh"

using namespace hsipc;
using namespace hsipc::sim;
using namespace hsipc::sim::check;

int
main(int argc, char **argv)
{
    const char *path = nullptr;
    bool forceDifferential = false;
    bool print = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--differential") == 0)
            forceDifferential = true;
        else if (std::strcmp(argv[i], "--print") == 0)
            print = true;
        else if (!path)
            path = argv[i];
        else
            path = ""; // second positional: force the usage error
    }
    if (!path || !*path) {
        std::fprintf(stderr,
                     "usage: fuzz_replay REPRO.json [--differential] "
                     "[--print]\n");
        return 2;
    }

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "fuzz_replay: cannot open %s\n", path);
        return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();

    Experiment exp;
    bool differential = forceDifferential;
    try {
        const JsonValue doc = parseJson(ss.str());
        const JsonValue &expDoc =
            doc.has("experiment") ? doc.at("experiment") : doc;
        exp = experimentFromJson(expDoc);
        if (doc.has("differential") &&
            doc.at("differential").asBool())
            differential = true;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fuzz_replay: %s: %s\n", path, e.what());
        return 2;
    }

    if (print)
        std::fprintf(stdout, "%s", experimentToJson(exp).c_str());

    const CheckResult res = checkedRun(exp);
    std::vector<Violation> violations = res.violations;
    if (differential && differentialEligible(exp)) {
        const std::vector<Violation> dv = differentialCheck(exp);
        violations.insert(violations.end(), dv.begin(), dv.end());
    }

    if (violations.empty()) {
        std::fprintf(stderr, "fuzz_replay: %s is clean\n", path);
        return 0;
    }
    std::fprintf(stderr, "fuzz_replay: %s still violates:\n%s", path,
                 formatViolations(violations).c_str());
    return 1;
}
