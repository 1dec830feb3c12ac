/**
 * @file
 * Idle-leap lockstep suite with the paper's instruments attached: a
 * leaping threaded machine and one built under UPC780_NOLEAP must
 * serialize to the same machine, UPC histogram board and watchdog
 * bytes at every chunk boundary, and lazily ticked devices must read
 * the per-cycle clock wherever they are observed. The bare lockstep
 * (no probes) lives in dispatch_test.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "arch/assembler.hh"
#include "common/serial.hh"
#include "cpu/vax780.hh"
#include "os/kernel.hh"
#include "sim/watchdog.hh"
#include "upc/monitor.hh"

#include "leap_scenario.hh"

using namespace upc780;
using namespace upc780::arch;
using namespace upc780::leaptest;

namespace
{

/** A batchable device that never interrupts and keeps its clock. */
class ClockDevice : public cpu::Device
{
  public:
    void
    tick(uint64_t now) override
    {
        now_ = now;
        ++ticks_;
    }
    bool requesting(uint32_t &, uint32_t &) override { return false; }
    void acknowledge() override {}
    bool tickBatchable() const override { return true; }

    uint64_t now_ = 0;
    uint64_t ticks_ = 0;
};

} // namespace

// The same lockstep with the paper's instruments attached and the
// second process waiting on the terminal: the UPC monitor and the
// watchdog take leaped windows through their batched entry points, so
// the leap must still fire, and machine, histogram board and watchdog
// (progress counters and trace ring) must serialize to the same bytes
// as on the per-cycle machine.
TEST(DispatchLeap, MonitoredLeapMatchesPerCycleStateExactly)
{
    auto refMachine = threadedMachine(true);
    auto leapMachine = threadedMachine(false);
    cpu::Vax780 &ref = *refMachine, &leap = *leapMachine;
    upc::UpcMonitor mref, mleap;
    sim::Watchdog wref(ref.microcode()), wleap(leap.microcode());
    ref.attachProbe(&mref);
    ref.attachProbe(&wref);
    leap.attachProbe(&mleap);
    leap.attachProbe(&wleap);
    mref.start();
    mleap.start();
    auto vref = bootTwoProcesses(ref, true);
    auto vleap = bootTwoProcesses(leap, true);

    auto bytes = [](const auto &probe) {
        ByteWriter w;
        probe.serialize(w);
        return w.take();
    };
    const uint64_t chunk = 4096;
    for (uint64_t t = 0; t < 300000; t += chunk) {
        ref.run(chunk);
        leap.run(chunk);
        ASSERT_EQ(snapState(ref), snapState(leap))
            << "machine diverged in chunk starting at cycle " << t;
        ASSERT_EQ(bytes(mref), bytes(mleap))
            << "monitor diverged in chunk starting at cycle " << t;
        ASSERT_EQ(bytes(wref), bytes(wleap))
            << "watchdog diverged in chunk starting at cycle " << t;
    }
    EXPECT_GT(vref->stats().contextSwitches, 5u);
    EXPECT_GT(vleap->terminal().interrupts(), 5u);
    EXPECT_EQ(vref->terminal().interrupts(), vleap->terminal().interrupts());
    EXPECT_EQ(mleap.observedCycles(), leap.cycles());
    EXPECT_GT(leap.leapedCycles(), 0u) << "the monitored path never leapt";
    EXPECT_EQ(ref.leapedCycles(), 0u);
}

// A lazily ticked device is current wherever it can be observed: at a
// runBatch exit and, after Vax780::syncDevices(), inside an executing
// cycle (the OS's terminal ISR drains due input from an XFC assist
// this way). Its clock must read what per-cycle ticking gives, while
// the leaping machine makes far fewer tick() calls.
TEST(DispatchLeap, LazyDeviceClockMatchesPerCycle)
{
    Assembler a(0x1000);
    a.emit(Op::MOVL, {Operand::imm(64), Operand::reg(1)});
    a.emit(Op::MOVL, {Operand::imm(0x10000), Operand::reg(2)});
    Label top = a.here();
    a.emit(Op::MOVL, {Operand::regDef(2), Operand::reg(3)}); // read miss
    a.emit(Op::ADDL2, {Operand::imm(4096), Operand::reg(2)});
    a.emit(Op::XFC, {});
    a.emitBr(Op::SOBGTR, {Operand::reg(1)}, top);
    a.emit(Op::HALT, {});
    const auto &bytes = a.finish();

    auto ref = threadedMachine(true);
    auto leap = threadedMachine(false);
    ClockDevice dref, dleap;
    std::vector<uint64_t> seenRef, seenLeap;
    auto wire = [&](cpu::Vax780 &m, ClockDevice &d,
                    std::vector<uint64_t> &seen) {
        m.memsys().memory().load(a.base(), bytes.data(),
                                 static_cast<uint32_t>(bytes.size()));
        m.ebox().reset(a.base(), false);
        m.ebox().gpr(reg::SP) = 0x8000;
        m.addDevice(&d);
        m.ebox().setOsAssist([&m, &d, &seen](cpu::Ebox &) {
            m.syncDevices();
            seen.push_back(d.now_);
        });
    };
    wire(*ref, dref, seenRef);
    wire(*leap, dleap, seenLeap);

    for (cpu::Vax780 *m : {ref.get(), leap.get()}) {
        while (!m->ebox().halted())
            m->runBatch(1000, true);
    }
    EXPECT_EQ(ref->cycles(), leap->cycles());
    ASSERT_EQ(seenRef.size(), 64u);
    EXPECT_EQ(seenRef, seenLeap);
    EXPECT_EQ(dref.now_, dleap.now_);
    EXPECT_EQ(dleap.now_, leap->cycles() - 1);
    EXPECT_GT(leap->leapedCycles(), 0u);
    EXPECT_LT(dleap.ticks_, dref.ticks_ / 2)
        << "the leaping machine still ticks its devices every cycle";
}

// The terminal ISR drains input from an XFC assist two cycles after
// the interrupt dispatch, which is the last point where the leaping
// machine brought its lazily ticked terminal up to date. Input that
// comes due inside that window must be drained by the same ISR, as on
// the per-cycle machine, so VmsLite::onTermEvent has to sync the
// devices first. The second input's due cycle steps one cycle at a
// time past the first input's service until it needs an interrupt of
// its own, so one step lands inside the window.
TEST(DispatchLeap, TerminalInputDueInsideIsrWindowIsDrainedWithIt)
{
    const uint64_t firstDue = 20000;
    uint64_t k = 1;
    for (; k <= 2000; ++k) {
        uint64_t interrupts[2] = {};
        std::vector<uint8_t> state[2];
        for (int noLeap : {0, 1}) {
            auto m = threadedMachine(noLeap);
            auto v = bootTwoProcesses(*m);
            v->terminal().scheduleInput(firstDue, 1);
            v->terminal().scheduleInput(firstDue + k, 1);
            m->run(firstDue + k + 1000);
            interrupts[noLeap] = v->terminal().interrupts();
            state[noLeap] = snapState(*m);
        }
        ASSERT_EQ(interrupts[1], interrupts[0])
            << "second input due " << k << " cycles after the first";
        ASSERT_EQ(state[1], state[0])
            << "second input due " << k << " cycles after the first";
        if (interrupts[1] == 2)
            break;
    }
    EXPECT_LE(k, 2000u) << "the second input never needed its own "
                           "interrupt";
}
