/**
 * @file
 * Tests of the benchmark's own correctness checks: each check passes
 * on genuine outputs and rejects the same outputs with one planted
 * fault. Run with `ctest` in the benchmark's build directory, or
 * `python3 e2ebench/run.py --self-test`.
 */

#include <cstdio>
#include <filesystem>
#include <string>

#include "checks.hh"
#include "sim/engine.hh"
#include "svc/daemon.hh"
#include "svc/job.hh"
#include "ucode/controlstore.hh"
#include "upc/analyzer.hh"
#include "upc/report.hh"
#include "workload/profile.hh"

using namespace upc780;
using namespace e2e;

namespace
{

int failures = 0;
int checks = 0;

void
expectPass(const std::string &reason, const char *what)
{
    ++checks;
    if (!reason.empty()) {
        ++failures;
        std::printf("FAIL %s: unexpected fault: %s\n", what, reason.c_str());
    }
}

void
expectFault(const std::string &reason, const char *what)
{
    ++checks;
    if (reason.empty()) {
        ++failures;
        std::printf("FAIL %s: planted fault not detected\n", what);
    } else {
        std::printf("ok   %s: %s\n", what, reason.c_str());
    }
}

std::string
render(const sim::CompositeResult &c)
{
    upc::HistogramAnalyzer an(c.histogram, ucode::microcodeImage());
    upc::ReportHwInputs hw;
    hw.ibFills = c.hw.ibFills;
    hw.iReadMisses = c.hw.iReadMisses;
    hw.dReadMisses = c.hw.dReadMisses;
    hw.unalignedRefs = c.hw.unalignedRefs;
    hw.softIntRequests = c.osStats.softIntRequests();
    return upc::writeReport(an, hw);
}

/** @p h with bucket @p from's execution count moved to @p to. */
upc::Histogram
moveBucket(const upc::Histogram &h, ucode::UAddr from, ucode::UAddr to)
{
    upc::Histogram out;
    for (uint32_t a = 0; a < upc::Histogram::NumBuckets; ++a) {
        const ucode::UAddr dst = a == from ? to : ucode::UAddr(a);
        for (uint64_t i = 0; i < h.count(ucode::UAddr(a)); ++i)
            out.bumpCount(dst);
        for (uint64_t i = 0; i < h.stall(ucode::UAddr(a)); ++i)
            out.bumpStall(ucode::UAddr(a));
    }
    return out;
}

/** Rebuild the composite from (possibly altered) workload results. */
sim::CompositeResult
refold(const std::vector<sim::WorkloadResult> &ws)
{
    sim::CompositeResult c;
    for (const sim::WorkloadResult &w : ws)
        c.add(w);
    return c;
}

/** The lowest (or highest) non-decode bucket holding execution
 *  counts in @p h. */
ucode::UAddr
busyBucket(const upc::Histogram &h, ucode::UAddr skip, bool highest)
{
    ucode::UAddr found = 0;
    for (uint32_t a = 1; a < upc::Histogram::NumBuckets; ++a)
        if (a != skip && h.count(ucode::UAddr(a)) > 100) {
            found = ucode::UAddr(a);
            if (!highest)
                break;
        }
    return found;
}

void
compositeChecks()
{
    constexpr uint64_t N = 20000;
    sim::ExperimentConfig cfg;
    cfg.instructionsPerWorkload = N;
    cfg.warmupInstructions = N / 6;
    sim::EngineConfig ec;
    ec.jobs = 1;
    const sim::CompositeResult c =
        sim::ParallelEngine(cfg, ec).runComposite(wkl::paperWorkloads());
    const std::string report = render(c);

    expectPass(checkInstructionBudget(c, N), "budget, genuine");
    expectPass(checkCycleAgreement(c), "cycles, genuine");
    expectPass(checkConservation(c), "conservation, genuine");
    expectPass(checkReportHeadline(report, c), "headline, genuine");
    expectPass(checkSame(report, render(c), "report"), "report, re-rendered");
    expectPass(checkSameCounters(c.obs, c.obs), "counters, genuine");

    // An instruction budget missed by one.
    expectFault(checkInstructionBudget(c, N + 1), "budget missed by one");

    const ucode::UAddr decode = ucode::microcodeImage().marks.decode;
    const ucode::UAddr busy =
        busyBucket(c.workloads[0].histogram, decode, false);
    const ucode::UAddr busyHigh =
        busyBucket(c.workloads[0].histogram, decode, true);

    // The decode bucket of one workload moved to another address.
    {
        std::vector<sim::WorkloadResult> ws = c.workloads;
        ws[0].histogram = moveBucket(ws[0].histogram, decode, busy);
        expectFault(checkInstructionBudget(refold(ws), N),
                    "decode bucket moved");
    }
    // Another bucket moved: totals hold, the report does not.
    {
        std::vector<sim::WorkloadResult> ws = c.workloads;
        ws[0].histogram = moveBucket(ws[0].histogram, busy, busyHigh);
        const sim::CompositeResult moved = refold(ws);
        expectPass(checkCycleAgreement(moved), "bucket moved, totals");
        expectFault(checkSame(report, render(moved), "report"),
                    "bucket moved, report");
    }
    // One stall cycle lost from the histogram.
    {
        std::vector<sim::WorkloadResult> ws = c.workloads;
        upc::Histogram h;
        bool dropped = false;
        for (uint32_t a = 0; a < upc::Histogram::NumBuckets; ++a) {
            const ucode::UAddr ua = ucode::UAddr(a);
            for (uint64_t i = 0; i < ws[1].histogram.count(ua); ++i)
                h.bumpCount(ua);
            uint64_t s = ws[1].histogram.stall(ua);
            if (s && !dropped) {
                --s;
                dropped = true;
            }
            for (uint64_t i = 0; i < s; ++i)
                h.bumpStall(ua);
        }
        ws[1].histogram = h;
        expectFault(checkCycleAgreement(refold(ws)), "stall cycle lost");
    }
    // Counters off by one.
    {
        std::vector<sim::WorkloadResult> ws = c.workloads;
        ws[2].obs.counters[size_t(obs::Ev::UpcCycles)] += 1;
        expectFault(checkCycleAgreement(refold(ws)), "upc.cycles off by one");
        expectFault(checkSameCounters(c.obs, refold(ws).obs),
                    "counters differ between repetitions");
    }
    {
        std::vector<sim::WorkloadResult> ws = c.workloads;
        ws[3].obs.counters[size_t(obs::Ev::EboxUops)] -= 1;
        expectFault(checkConservation(refold(ws)), "ebox.uops off by one");
    }
    {
        std::vector<sim::WorkloadResult> ws = c.workloads;
        ws[4].cycles += 1;
        expectFault(checkCycleAgreement(refold(ws)),
                    "result cycles off by one");
        expectFault(checkConservation(refold(ws)),
                    "result cycles off by one, conservation");
    }
    // The report's CPI edited by one digit.
    {
        std::string bad = report;
        const size_t at = bad.find(" cycles per average");
        bad[at - 1] = bad[at - 1] == '9' ? '0' : char(bad[at - 1] + 1);
        expectFault(checkReportHeadline(bad, c), "report CPI edited");
    }
    // A self-consistent report whose CPI is far from the paper's.
    {
        sim::WorkloadResult w;
        w.name = "slow";
        for (int i = 0; i < 10; ++i)
            w.histogram.bumpCount(decode);
        for (int i = 0; i < 300; ++i)
            w.histogram.bumpCount(busy);
        w.cycles = w.histogram.totalCycles();
        const sim::CompositeResult slow = refold({w});
        expectFault(checkReportHeadline(render(slow), slow),
                    "CPI outside the band");
    }
}

void
replyChecks()
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::current_path() / "checks_test.tmp";
    fs::remove_all(dir);

    const std::string req = "{\"workloads\":\"paper\",\"instructions\":"
                            "3000,\"warmup\":600,\"seed\":7}";
    std::string reply, hit;
    svc::DaemonStats stats;
    {
        svc::DaemonConfig dc;
        dc.cacheDir = (dir / "cache").string();
        svc::Daemon d(dc); // workers = 0: this thread pumps the queue
        svc::JobHandle h = d.submit(req);
        d.runQueuedOnce();
        reply = h.wait();
        hit = d.submit(req).wait();
        stats = d.stats();
    }
    fs::remove_all(dir);

    const svc::JobSpec spec = svc::parseJobSpec(svc::json::parse(req));
    sim::EngineConfig ec;
    ec.jobs = 1;
    const sim::CompositeResult local =
        sim::ParallelEngine(svc::toExperimentConfig(spec), ec)
            .runComposite(svc::profilesFor(spec));

    expectPass(checkReplyOk(reply), "reply ok, genuine");
    expectPass(checkSame(reply, hit, "hit"), "hit, genuine");
    expectPass(checkReplyTotals(reply, local), "totals, genuine");
    expectPass(checkHitStats(stats, 1), "hit stats, genuine");

    // One byte flipped in a reply.
    {
        std::string bad = hit;
        bad[bad.size() / 2] ^= 0x01;
        expectFault(checkSame(reply, bad, "hit"), "reply byte flipped");
    }
    expectFault(checkReplyOk(svc::errorReply("Timeout", "late")),
                "error reply");
    expectFault(checkReplyOk(reply.substr(0, reply.size() - 1)),
                "truncated reply");

    // Totals against a composite of other inputs.
    {
        svc::JobSpec other = spec;
        other.seed = 8;
        const sim::CompositeResult c =
            sim::ParallelEngine(svc::toExperimentConfig(other), ec)
                .runComposite(svc::profilesFor(other));
        expectFault(checkReplyTotals(reply, c), "totals of another seed");
    }
    // Totals edited in the reply.
    {
        const std::string key = "\"cycles\":";
        std::string bad = reply;
        const size_t at =
            bad.find(key, bad.find("\"replications\"")) + key.size();
        bad[at] = bad[at] == '9' ? '1' : char(bad[at] + 1);
        expectFault(checkReplyTotals(bad, local), "reply cycles edited");
    }

    svc::DaemonStats twice = stats;
    twice.engineRuns = 2;
    expectFault(checkHitStats(twice, 1), "two simulations");
    expectFault(checkHitStats(stats, 2), "a hit not counted");
}

} // namespace

int
main()
{
    compositeChecks();
    replyChecks();
    std::printf("%d checks, %d failures\n", checks, failures);
    return failures == 0 ? 0 : 1;
}
