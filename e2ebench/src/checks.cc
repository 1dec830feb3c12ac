#include "checks.hh"

#include <cmath>
#include <cstdio>

#include "common/error.hh"
#include "svc/json.hh"
#include "ucode/controlstore.hh"

namespace e2e
{

using namespace upc780;

namespace
{

std::string
fmt(const char *f, unsigned long long a, unsigned long long b)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), f, a, b);
    return buf;
}

} // namespace

std::string
checkInstructionBudget(const sim::CompositeResult &c, uint64_t perWorkload)
{
    const ucode::UAddr decode = ucode::microcodeImage().marks.decode;
    uint64_t sum = 0;
    for (const sim::WorkloadResult &w : c.workloads) {
        const uint64_t n = w.histogram.count(decode);
        if (n != perWorkload)
            return w.name + ": " +
                   fmt("decode bucket holds %llu instructions, budget "
                       "is %llu",
                       n, perWorkload);
        sum += n;
    }
    if (c.workloads.empty() || sum != c.instructions())
        return fmt("composite decode bucket holds %llu instructions, "
                   "the workloads sum to %llu",
                   c.instructions(), sum);
    return "";
}

std::string
checkCycleAgreement(const sim::CompositeResult &c)
{
    uint64_t sum = 0;
    for (const sim::WorkloadResult &w : c.workloads) {
        const uint64_t obsCycles = w.obs.value(obs::Ev::UpcCycles);
        if (w.histogram.totalCycles() != w.cycles)
            return w.name + ": " +
                   fmt("histogram holds %llu cycles, the result %llu",
                       w.histogram.totalCycles(), w.cycles);
        if (obsCycles != w.cycles)
            return w.name + ": " +
                   fmt("counter upc.cycles is %llu, the result %llu",
                       obsCycles, w.cycles);
        sum += w.cycles;
    }
    if (c.histogram.totalCycles() != sum ||
        c.obs.value(obs::Ev::UpcCycles) != sum)
        return fmt("composite histogram holds %llu cycles, the "
                   "workloads sum to %llu",
                   c.histogram.totalCycles(), sum);
    return "";
}

std::string
checkConservation(const sim::CompositeResult &c)
{
    for (const sim::WorkloadResult &w : c.workloads) {
        const obs::Snapshot &o = w.obs;
        const uint64_t counts = o.value(obs::Ev::EboxUops) +
                                o.value(obs::Ev::EboxIbStallCycles) +
                                o.value(obs::Ev::EboxAborts) +
                                o.value(obs::Ev::EboxHaltCycles);
        const uint64_t stalls = o.value(obs::Ev::EboxStallCycles);
        if (counts != w.histogram.totalCounts())
            return w.name + ": " +
                   fmt("counters give %llu counted cycles, the "
                       "histogram %llu",
                       counts, w.histogram.totalCounts());
        if (counts + stalls != w.cycles)
            return w.name + ": " +
                   fmt("counts plus stalls are %llu, cycles %llu",
                       counts + stalls, w.cycles);
    }
    return "";
}

std::string
checkReportHeadline(const std::string &report, const sim::CompositeResult &c)
{
    const size_t nl = report.find('\n');
    if (nl == std::string::npos)
        return "report has no headline";
    unsigned long long instr = 0, cycles = 0;
    char cpiText[32] = {};
    if (std::sscanf(report.c_str() + nl + 1,
                    "%llu instructions, %llu cycles, %31s cycles", &instr,
                    &cycles, cpiText) != 3)
        return "report headline does not parse";
    if (instr != c.instructions() || cycles != c.histogram.totalCycles())
        return fmt("report headline gives %llu instructions and %llu "
                   "cycles, the histogram differs",
                   instr, cycles);
    if (c.instructions() == 0)
        return "empty composite";
    const double cpi = double(c.histogram.totalCycles()) /
                       double(c.instructions());
    char mine[32];
    std::snprintf(mine, sizeof(mine), "%.3f", cpi);
    if (std::string(mine) != cpiText)
        return std::string("report CPI ") + cpiText +
               " differs from the histogram's " + mine;
    if (std::fabs(cpi - PaperCpi) > CpiBand * PaperCpi)
        return std::string("CPI ") + mine +
               " lies outside the band around the paper's 10.6";
    return "";
}

std::string
checkSame(const std::string &expect, const std::string &got,
          const char *what)
{
    if (expect == got)
        return "";
    size_t i = 0;
    while (i < expect.size() && i < got.size() && expect[i] == got[i])
        ++i;
    return std::string(what) +
           fmt(" differs at byte %llu (lengths %llu", i, expect.size()) +
           " and " + std::to_string(got.size()) + ")";
}

std::string
checkSameCounters(const obs::Snapshot &expect, const obs::Snapshot &got)
{
    for (size_t i = 0; i < obs::NumEvents; ++i)
        if (expect.counters[i] != got.counters[i])
            return std::string("counter ") +
                   std::string(obs::evName(obs::Ev(i))) +
                   fmt(" is %llu, the first repetition had %llu",
                       got.counters[i], expect.counters[i]);
    return "";
}

std::string
checkReplyOk(const std::string &reply)
{
    try {
        const svc::json::Value v = svc::json::parse(reply);
        const svc::json::Value *ok = v.find("ok");
        if (ok && ok->isBool() && ok->asBool())
            return "";
        return "reply is not ok: " + reply.substr(0, 200);
    } catch (const SimError &e) {
        return std::string("reply does not parse: ") + e.what();
    }
}

std::string
checkReplyTotals(const std::string &reply, const sim::CompositeResult &c)
{
    try {
        const svc::json::Value v = svc::json::parse(reply);
        const svc::json::Value *reps = v.find("replications");
        if (!reps || !reps->isArray() || reps->asArray().size() != 1)
            return "reply has no single replication";
        const svc::json::Value &r = reps->asArray().front();
        const svc::json::Value *instr = r.find("instructions");
        const svc::json::Value *cycles = r.find("cycles");
        if (!instr || !cycles)
            return "reply lacks instruction or cycle totals";
        if (instr->asUint() != c.instructions())
            return fmt("reply gives %llu instructions, the engine %llu",
                       instr->asUint(), c.instructions());
        if (cycles->asUint() != c.histogram.totalCycles())
            return fmt("reply gives %llu cycles, the engine %llu",
                       cycles->asUint(), c.histogram.totalCycles());
        return "";
    } catch (const SimError &e) {
        return std::string("reply does not parse: ") + e.what();
    }
}

std::string
checkHitStats(const svc::DaemonStats &s, uint64_t hitsSent)
{
    if (s.engineRuns != 1)
        return fmt("daemon ran %llu simulations, want %llu",
                   s.engineRuns, 1);
    if (s.cacheHits != hitsSent)
        return fmt("daemon counted %llu cache hits, the client sent %llu",
                   s.cacheHits, hitsSent);
    return "";
}

} // namespace e2e
