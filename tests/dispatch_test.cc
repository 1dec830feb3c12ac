/**
 * @file
 * Dual-dispatch differential suite: the threaded dispatcher (decoded
 * rows + fused handlers + idle-leap engine) must be observationally
 * indistinguishable from the legacy switch interpreter, which stays a
 * pristine per-cycle reference. Every paper workload (plus the bursty
 * RTE profile) and every microbenchmark kernel runs under both
 * dispatchers pinned via MachineConfig::Dispatch; histograms, all
 * event counters, hardware counters, OS statistics, trace streams and
 * the rendered report must be byte-identical. A final lockstep test
 * pins the idle-leap engine itself: leaping and per-cycle threaded
 * execution must produce bit-identical serialized machine state
 * (leap_test.cc repeats the lockstep with the instruments attached).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cpu/vax780.hh"
#include "sim/experiment.hh"
#include "ubench/ubench.hh"
#include "upc/analyzer.hh"
#include "upc/report.hh"
#include "workload/profile.hh"

#include "leap_scenario.hh"
#include "param_names.hh"

using namespace upc780;
using namespace upc780::arch;
using namespace upc780::leaptest;

namespace
{

sim::ExperimentConfig
configFor(cpu::MachineConfig::Dispatch d)
{
    sim::ExperimentConfig cfg;
    cfg.machine.dispatch = d;
    // Short but non-trivial: enough instructions that every workload
    // schedules several processes, takes timer and terminal
    // interrupts, and touches every counter class.
    cfg.instructionsPerWorkload = 20000;
    cfg.warmupInstructions = 4000;
    cfg.obs.counters = true;
    cfg.obs.traceDepth = 4096;  // compare event streams, not just sums
    return cfg;
}

void
expectIdentical(const sim::WorkloadResult &sw, const sim::WorkloadResult &th)
{
    EXPECT_EQ(sw.name, th.name);
    EXPECT_EQ(sw.cycles, th.cycles) << sw.name;
    EXPECT_TRUE(sw.histogram == th.histogram) << sw.name;

    // All event counters, by name, so a drift identifies itself.
    for (size_t i = 0; i < obs::NumEvents; ++i)
        EXPECT_EQ(sw.obs.counters[i], th.obs.counters[i])
            << sw.name << ": counter "
            << obs::evName(static_cast<obs::Ev>(i));

    EXPECT_EQ(0, std::memcmp(&sw.hw, &th.hw, sizeof(sw.hw))) << sw.name;

    EXPECT_EQ(sw.osStats.contextSwitches, th.osStats.contextSwitches);
    EXPECT_EQ(sw.osStats.reschedRequests, th.osStats.reschedRequests);
    EXPECT_EQ(sw.osStats.forkRequests, th.osStats.forkRequests);
    EXPECT_EQ(sw.osStats.syscalls, th.osStats.syscalls);
    EXPECT_EQ(sw.osStats.termWrites, th.osStats.termWrites);
    EXPECT_EQ(sw.timerInterrupts, th.timerInterrupts) << sw.name;
    EXPECT_EQ(sw.terminalInterrupts, th.terminalInterrupts) << sw.name;

    // The structured event trace: same events, same cycles, same
    // payloads, in the same order.
    ASSERT_EQ(sw.trace.size(), th.trace.size()) << sw.name;
    for (size_t i = 0; i < sw.trace.size(); ++i)
        EXPECT_EQ(0, std::memcmp(&sw.trace[i], &th.trace[i],
                                 sizeof(obs::TraceEvent)))
            << sw.name << ": trace event " << i;

    // The rendered report (every paper table) is byte-identical.
    auto report = [](const sim::WorkloadResult &w) {
        sim::CompositeResult c;
        c.add(w);
        upc::HistogramAnalyzer an(c.histogram, ucode::microcodeImage());
        return upc::writeReport(an, sim::reportHwInputs(c));
    };
    EXPECT_EQ(report(sw), report(th)) << sw.name;
}

class DispatchWorkload
    : public ::testing::TestWithParam<wkl::WorkloadProfile>
{};

} // namespace

TEST_P(DispatchWorkload, ByteIdenticalAcrossDispatchers)
{
    const wkl::WorkloadProfile &profile = GetParam();
    sim::ExperimentRunner sw(configFor(cpu::MachineConfig::Dispatch::Switch));
    sim::ExperimentRunner th(
        configFor(cpu::MachineConfig::Dispatch::Threaded));
    expectIdentical(sw.runWorkload(profile), th.runWorkload(profile));
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, DispatchWorkload,
    ::testing::Values(wkl::timesharing1Profile(), wkl::timesharing2Profile(),
                      wkl::educationalProfile(), wkl::scientificProfile(),
                      wkl::commercialProfile(), wkl::burstyNetworkProfile()),
    [](const ::testing::TestParamInfo<wkl::WorkloadProfile> &info) {
        std::string n = info.param.name;
        for (char &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

namespace
{

class DispatchKernel : public ::testing::TestWithParam<ubench::Kernel>
{};

} // namespace

TEST_P(DispatchKernel, ByteIdenticalAcrossDispatchers)
{
    const ubench::Kernel &k = GetParam();
    constexpr uint32_t Iters = 300;
    ubench::RunOverrides sw, th;
    sw.dispatch = 0;
    th.dispatch = 1;
    ubench::Measurement a = ubench::runKernel(k, Iters, sw);
    ubench::Measurement b = ubench::runKernel(k, Iters, th);

    EXPECT_EQ(a.machineCycles, b.machineCycles) << k.name;
    EXPECT_EQ(a.monitorCycles, b.monitorCycles) << k.name;
    EXPECT_EQ(a.instructions, b.instructions) << k.name;
    EXPECT_TRUE(a.hist == b.hist) << k.name;
    for (size_t i = 0; i < obs::NumEvents; ++i)
        EXPECT_EQ(a.obs.counters[i], b.obs.counters[i])
            << k.name << ": counter "
            << obs::evName(static_cast<obs::Ev>(i));
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, DispatchKernel, ::testing::ValuesIn(ubench::allKernels()),
    [](const ::testing::TestParamInfo<ubench::Kernel> &info) {
        std::string n = info.param.name;
        for (char &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

// The idle-leap engine (pad superblocks, memory-stall windows,
// IB-starved windows, lazily ticked devices) must be bit-identical
// to per-cycle threaded execution. Run a full OS scenario — timer +
// terminal devices, context switches, TB misses — in lockstep on two
// machines, one leaping and one built under UPC780_NOLEAP, and
// compare complete serialized machine state at every chunk boundary.
TEST(DispatchLeap, LeapMatchesPerCycleStateExactly)
{
    auto refMachine = threadedMachine(true);
    auto leapMachine = threadedMachine(false);
    cpu::Vax780 &ref = *refMachine, &leap = *leapMachine;
    auto vref = bootTwoProcesses(ref);
    auto vleap = bootTwoProcesses(leap);

    const uint64_t chunk = 4096;
    for (uint64_t t = 0; t < 300000; t += chunk) {
        ref.run(chunk);
        leap.run(chunk);
        ASSERT_EQ(snapState(ref), snapState(leap))
            << "diverged in chunk starting at cycle " << t;
    }
    EXPECT_GT(vref->stats().contextSwitches, 5u);
    EXPECT_GT(leap.leapedCycles(), 0u);
    EXPECT_EQ(ref.leapedCycles(), 0u);
}
