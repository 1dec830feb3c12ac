/**
 * @file
 * The benchmark's correctness checks. Each one holds an output to a
 * property the method must have, or to a total reached by an
 * independent path, and never to a stored copy of an earlier output.
 * Each returns an empty string when the property holds and a one-line
 * reason when it does not; checks_test.cc plants a fault for every one.
 */

#ifndef E2EBENCH_CHECKS_HH
#define E2EBENCH_CHECKS_HH

#include <cstdint>
#include <string>

#include "obs/counters.hh"
#include "sim/experiment.hh"
#include "svc/daemon.hh"

namespace e2e
{

/** The paper's headline CPI (Table 8) and the accepted relative band
 *  around it: the model is calibrated to the paper, not fitted to it,
 *  and its composites land between 9.38 and 9.67 on seeds 1-30. */
constexpr double PaperCpi = 10.6;
constexpr double CpiBand = 0.20;

// ---- composite -------------------------------------------------------

/** Each workload's decode bucket, and their sum, equal the budget. */
std::string checkInstructionBudget(const upc780::sim::CompositeResult &c,
                                   uint64_t perWorkload);

/** histogram.totalCycles(), the obs upc.cycles counter and
 *  WorkloadResult::cycles agree, per workload and summed. */
std::string checkCycleAgreement(const upc780::sim::CompositeResult &c);

/** Counts plus stalls equal cycles, with the counts and stalls summed
 *  from the obs counters (uops + IB stalls + aborts + halts, and stall
 *  cycles) rather than from the histogram. */
std::string checkConservation(const upc780::sim::CompositeResult &c);

/** The report's headline (instructions, cycles, CPI) equals what the
 *  benchmark computes from the histogram, and the CPI lies within
 *  CpiBand of PaperCpi. */
std::string checkReportHeadline(const std::string &report,
                                const upc780::sim::CompositeResult &c);

/** Byte identity of two outputs; @p what names them in the reason. */
std::string checkSame(const std::string &expect, const std::string &got,
                      const char *what);

/** Every obs counter equal between two runs of the same inputs. */
std::string checkSameCounters(const upc780::obs::Snapshot &expect,
                              const upc780::obs::Snapshot &got);

// ---- daemon replies --------------------------------------------------

/** The reply parses and carries "ok": true. */
std::string checkReplyOk(const std::string &reply);

/** The reply's instruction and cycle totals equal those of a composite
 *  computed on another path (a ParallelEngine run of the same spec). */
std::string checkReplyTotals(const std::string &reply,
                             const upc780::sim::CompositeResult &c);

/** One simulation for the priming job, and every hit served from the
 *  cache. */
std::string checkHitStats(const upc780::svc::DaemonStats &s,
                          uint64_t hitsSent);

} // namespace e2e

#endif // E2EBENCH_CHECKS_HH
