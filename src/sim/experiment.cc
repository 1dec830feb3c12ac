#include "sim/experiment.hh"

#include "common/error.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "sim/run.hh"
#include "ucode/controlstore.hh"

namespace upc780::sim
{

void
HwCounters::accumulate(const HwCounters &o)
{
    dReads += o.dReads;
    dReadMisses += o.dReadMisses;
    iReads += o.iReads;
    iReadMisses += o.iReadMisses;
    writes += o.writes;
    writeStallCycles += o.writeStallCycles;
    unalignedRefs += o.unalignedRefs;
    tbDMisses += o.tbDMisses;
    tbIMisses += o.tbIMisses;
    ibFills += o.ibFills;
}

void
CompositeResult::add(WorkloadResult r)
{
    if (r.ok) {
        histogram.merge(r.histogram);
        hw.accumulate(r.hw);
        osStats.accumulate(r.osStats);
        faultStats.accumulate(r.faultStats);
        obs.accumulate(r.obs);
        host.accumulate(r.host);
        timerInterrupts += r.timerInterrupts;
        terminalInterrupts += r.terminalInterrupts;
    }
    workloads.push_back(std::move(r));
}

uint64_t
CompositeResult::instructions() const
{
    return histogram.count(ucode::microcodeImage().marks.decode);
}

bool
CompositeResult::allOk() const
{
    for (const WorkloadResult &w : workloads)
        if (!w.ok)
            return false;
    return true;
}

upc::ReportHwInputs
reportHwInputs(const CompositeResult &c)
{
    upc::ReportHwInputs hw;
    hw.ibFills = c.hw.ibFills;
    hw.iReadMisses = c.hw.iReadMisses;
    hw.dReadMisses = c.hw.dReadMisses;
    hw.unalignedRefs = c.hw.unalignedRefs;
    hw.softIntRequests = c.osStats.softIntRequests();
    hw.timerInterrupts = c.timerInterrupts;
    hw.terminalInterrupts = c.terminalInterrupts;
    hw.syscalls = c.osStats.syscalls;
    return hw;
}

void
WorkloadResult::serialize(ByteWriter &w) const
{
    w.str(name);
    histogram.serialize(w);
    w.u64(cycles);
    w.u64(hw.dReads);
    w.u64(hw.dReadMisses);
    w.u64(hw.iReads);
    w.u64(hw.iReadMisses);
    w.u64(hw.writes);
    w.u64(hw.writeStallCycles);
    w.u64(hw.unalignedRefs);
    w.u64(hw.tbDMisses);
    w.u64(hw.tbIMisses);
    w.u64(hw.ibFills);
    w.u64(osStats.contextSwitches);
    w.u64(osStats.reschedRequests);
    w.u64(osStats.forkRequests);
    w.u64(osStats.syscalls);
    w.u64(osStats.termWrites);
    w.u64(osStats.machineChecks);
    w.u64(osStats.faultsCorrected);
    w.u64(osStats.processesTerminated);
    w.u64(timerInterrupts);
    w.u64(terminalInterrupts);
    for (uint64_t v : faultStats.injected)
        w.u64(v);
    for (uint64_t v : obs.counters)
        w.u64(v);
    for (uint64_t ns : host.ns)
        w.u64(ns);
    w.u64(trace.size());
    for (const obs::TraceEvent &e : trace) {
        w.u64(e.ts);
        w.u64(e.arg0);
        w.u32(e.arg1);
        w.u32(e.cat);
        w.u16(e.code);
        w.u16(e.stream);
    }
    w.u64(errorLog.size());
    for (const os::ErrorLogEntry &e : errorLog) {
        w.u64(e.cycle);
        w.i32(e.pid);
        w.u8(static_cast<uint8_t>(e.kind));
        w.b(e.corrected);
    }
    w.b(ok);
    w.str(error);
    w.u32(attempts);
    w.u64(resumedFromCycle);
}

void
WorkloadResult::deserialize(ByteReader &r)
{
    name = r.str(1 << 10);
    histogram.deserialize(r);
    cycles = r.u64();
    hw.dReads = r.u64();
    hw.dReadMisses = r.u64();
    hw.iReads = r.u64();
    hw.iReadMisses = r.u64();
    hw.writes = r.u64();
    hw.writeStallCycles = r.u64();
    hw.unalignedRefs = r.u64();
    hw.tbDMisses = r.u64();
    hw.tbIMisses = r.u64();
    hw.ibFills = r.u64();
    osStats.contextSwitches = r.u64();
    osStats.reschedRequests = r.u64();
    osStats.forkRequests = r.u64();
    osStats.syscalls = r.u64();
    osStats.termWrites = r.u64();
    osStats.machineChecks = r.u64();
    osStats.faultsCorrected = r.u64();
    osStats.processesTerminated = r.u64();
    timerInterrupts = r.u64();
    terminalInterrupts = r.u64();
    for (uint64_t &v : faultStats.injected)
        v = r.u64();
    for (uint64_t &v : obs.counters)
        v = r.u64();
    for (uint64_t &ns : host.ns)
        ns = r.u64();
    trace.resize(r.size(1 << 24));
    for (obs::TraceEvent &e : trace) {
        e.ts = r.u64();
        e.arg0 = r.u64();
        e.arg1 = r.u32();
        e.cat = r.u32();
        e.code = r.u16();
        e.stream = r.u16();
        e.pad = 0;
    }
    errorLog.resize(r.size(1 << 20));
    for (os::ErrorLogEntry &e : errorLog) {
        e.cycle = r.u64();
        e.pid = r.i32();
        const uint8_t kind = r.u8();
        if (kind >= static_cast<uint8_t>(fault::FaultKind::NumKinds))
            sim_throw(SnapshotError,
                      "result error log has fault kind %u out of range",
                      kind);
        e.kind = static_cast<fault::FaultKind>(kind);
        e.corrected = r.b();
    }
    ok = r.b();
    error = r.str(1 << 16);
    attempts = r.u32();
    resumedFromCycle = r.u64();
}

WorkloadResult
ExperimentRunner::runWorkload(const wkl::WorkloadProfile &profile)
{
    // One plain attempt, checkpointing per policy but no retries: the
    // historical semantics. Retry/resume orchestration lives in
    // runWorkloadRecoverable (sim/run.hh), which runComposite uses.
    return WorkloadRun(cfg_, profile).run();
}

CompositeResult
ExperimentRunner::runComposite(
    const std::vector<wkl::WorkloadProfile> &profiles)
{
    CompositeResult c;
    for (const auto &p : profiles) {
        WorkloadResult r;
        try {
            r = runWorkloadRecoverable(cfg_, p);
        } catch (const SimError &e) {
            // Partial results: record the failure and keep going, as
            // an overnight measurement campaign must.
            warn("workload '%s' failed: %s", p.name.c_str(), e.what());
            r.name = p.name;
            r.ok = false;
            r.error = e.what();
        }
        c.add(std::move(r));
    }
    return c;
}

} // namespace upc780::sim
