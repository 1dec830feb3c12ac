/**
 * @file
 * The OS scenario shared by the idle-leap lockstep tests: a threaded
 * machine built with or without UPC780_NOLEAP, two booted VMS-lite
 * processes on it, and the serialized machine state that leaping and
 * per-cycle runs must agree on.
 */

#ifndef UPC780_TESTS_LEAP_SCENARIO_HH
#define UPC780_TESTS_LEAP_SCENARIO_HH

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <vector>

#include "arch/assembler.hh"
#include "common/serial.hh"
#include "cpu/vax780.hh"
#include "os/kernel.hh"

namespace upc780::leaptest
{

/** A compute-bound process that stamps its id and counts forever. */
inline os::ProcessImage
counterProcess(uint32_t stamp)
{
    using namespace arch;
    Assembler a(0);
    VAddr entry = a.pc();
    a.emit(Op::MOVL, {Operand::imm(stamp), Operand::reg(6)});
    Label top = a.here();
    a.emit(Op::ADDL2, {Operand::lit(1), Operand::abs(0x2000)});
    a.emit(Op::MOVL, {Operand::reg(6), Operand::abs(0x2004)});
    a.emitBr(Op::BRB, top);
    auto bytes = a.finish();

    os::ProcessImage img;
    img.p0Image.assign(0x2100, 0);
    std::copy(bytes.begin(), bytes.end(), img.p0Image.begin());
    img.entry = entry;
    img.p0Pages = 0x2100 / 512 + 8;
    img.thinkMeanCycles = 50000;
    return img;
}

/** A process that alternates a short work loop with terminal waits,
 *  so the terminal interrupts and its ISR drains due input. */
inline os::ProcessImage
interactiveProcess()
{
    using namespace arch;
    Assembler a(0);
    VAddr entry = a.pc();
    Label top = a.here();
    a.emit(Op::MOVL, {Operand::lit(50), Operand::reg(1)});
    Label loop = a.here();
    a.emit(Op::INCL, {Operand::abs(0x2000)});
    a.emitBr(Op::SOBGTR, {Operand::reg(1)}, loop);
    a.emit(Op::CHMK, {Operand::lit(os::sys::TermWait)});
    a.emitBr(Op::BRW, top);
    auto bytes = a.finish();

    os::ProcessImage img;
    img.p0Image.assign(0x2100, 0);
    std::copy(bytes.begin(), bytes.end(), img.p0Image.begin());
    img.entry = entry;
    img.p0Pages = 0x2100 / 512 + 8;
    img.thinkMeanCycles = 5000;
    return img;
}

inline std::vector<uint8_t>
snapState(cpu::Vax780 &m)
{
    ByteWriter w;
    m.serialize(w);
    return w.take();
}

/** A threaded machine, built under UPC780_NOLEAP when @p no_leap (the
 *  escape hatch is read once, at construction). */
inline std::unique_ptr<cpu::Vax780>
threadedMachine(bool no_leap)
{
    cpu::MachineConfig mc;
    mc.dispatch = cpu::MachineConfig::Dispatch::Threaded;
    if (no_leap)
        setenv("UPC780_NOLEAP", "1", 1);
    auto m = std::make_unique<cpu::Vax780>(mc);
    unsetenv("UPC780_NOLEAP");
    return m;
}

/** The 2-process OS scenario of the lockstep tests, booted; with
 *  @p interactive the second process waits on the terminal. */
inline std::unique_ptr<os::VmsLite>
bootTwoProcesses(cpu::Vax780 &m, bool interactive = false)
{
    os::OsConfig cfg;
    cfg.timerPeriodCycles = 2000;
    cfg.quantumTicks = 2;
    auto v = std::make_unique<os::VmsLite>(m, cfg);
    v->addProcess(counterProcess(1));
    v->addProcess(interactive ? interactiveProcess() : counterProcess(2));
    v->boot();
    return v;
}

} // namespace upc780::leaptest

#endif // UPC780_TESTS_LEAP_SCENARIO_HH
