/**
 * @file
 * e2ebench: end-to-end and per-layer benchmark of the simulator.
 *
 * Usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1
 *                 --workdir DIR [--trace-file FILE]
 *
 * Prints, as the last line of stdout, one JSON object with the keys
 * correct, attempted, failed and metrics. Exit code 0 when every
 * check held, 1 when a check failed, 2 on bad arguments or a set-up
 * error. See README.md for the workloads and metrics.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hh"

namespace
{

// Taken during static initialization, before main: the anchor of the
// cold set-up time.
const e2e::Clock::time_point processStart = e2e::Clock::now();

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "e2ebench: %s\nusage: e2ebench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --workdir DIR "
                 "[--trace-file FILE]\n",
                 msg);
    return 2;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    e2e::Options o;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *endp = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, &endp, 10);
            haveSeed = *v && !*endp;
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, &endp);
            haveSeconds = *v && !*endp && o.seconds > 0;
        } else if (a == "--trace") {
            haveTrace = !std::strcmp(v, "0") || !std::strcmp(v, "1");
            o.trace = !std::strcmp(v, "1");
        } else if (a == "--workdir") {
            o.workDir = v;
        } else if (a == "--trace-file") {
            o.traceFile = v;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (o.workload.empty() || !haveSeed || !haveSeconds || !haveTrace ||
        o.workDir.empty())
        return usage("--workload, --seed, --seconds, --trace and "
                     "--workdir are required");

    e2e::Outcome out;
    try {
        out = e2e::runBenchmark(o, processStart);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 2;
    }
    for (e2e::Metric &m : out.metrics) {
        if (!std::isfinite(m.value)) {
            out.correct = false;
            out.faults.push_back("metric " + m.name + " is not finite");
            m.value = 0;
        }
    }
    for (const std::string &f : out.faults)
        std::fprintf(stderr, "e2ebench: check failed: %s\n", f.c_str());

    std::string metrics;
    for (const e2e::Metric &m : out.metrics) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", m.value);
        metrics += (metrics.empty() ? "" : ", ") + jsonString(m.name) +
                   ": {\"value\": " + buf +
                   ", \"unit\": " + jsonString(m.unit) + "}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                out.correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics.c_str());
    return out.correct ? 0 : 1;
}
