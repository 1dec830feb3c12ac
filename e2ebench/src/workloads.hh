/**
 * @file
 * The benchmark's three workloads, driven only through the
 * simulator's public API:
 *
 *  - composite:    the five paper workloads run serially through
 *                  sim::WorkloadRun (monitor, watchdog, lint and
 *                  attribution audit on), then Tables 1-9 rendered;
 *  - spooled_jobs: cold paper jobs over a Unix socket to a daemon with
 *                  a spool directory, each on a distinct seed;
 *  - cache_hits:   one priming cold job with a report, then a closed
 *                  loop of identical requests that all hit the cache.
 *
 * Every workload uses one simulation thread and one client
 * connection at a time. Every operation's output is checked.
 */

#ifndef E2EBENCH_WORKLOADS_HH
#define E2EBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hh"

namespace e2e
{

/** Measured instructions per workload in one composite. */
constexpr uint64_t CompositeInstructions = 200000;

/** Measured and warm-up instructions per workload of a daemon job. */
constexpr uint64_t JobInstructions = 20000;
constexpr uint64_t JobWarmup = 4000;

/** Cache hits served by one Server before it is replaced (bounds the
 *  per-connection thread leak the server has; see README.md). */
constexpr uint64_t HitsPerServer = 1000;

/** Cache hits per round of the traced run. */
constexpr uint64_t TracedHits = 200;

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory for sockets, caches and spools (created). */
    std::string workDir;
    /** Where the traced run writes its Chrome trace JSON. */
    std::string traceFile;
};

struct Outcome
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Reasons the checks gave, for stderr. */
    std::vector<std::string> faults;
};

/**
 * Run one workload for @p o.seconds and return its metrics: the
 * end-to-end ones untraced, the per-layer ones with o.trace.
 * @p processStart anchors the set-up time. Throws std::invalid_argument
 * on an unknown workload name.
 */
Outcome runBenchmark(const Options &o, Clock::time_point processStart);

} // namespace e2e

#endif // E2EBENCH_WORKLOADS_HH
