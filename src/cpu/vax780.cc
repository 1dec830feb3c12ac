#include "cpu/vax780.hh"

#include <algorithm>
#include <cstdlib>

#include "common/serial.hh"
#include "fault/fault.hh"

namespace upc780::cpu
{

namespace
{

ucode::DispatchMode
dispatchFor(MachineConfig::Dispatch d)
{
    switch (d) {
      case MachineConfig::Dispatch::Threaded:
        return ucode::DispatchMode::Threaded;
      case MachineConfig::Dispatch::Switch:
        return ucode::DispatchMode::Switch;
      default:
        return ucode::dispatchMode();
    }
}

} // namespace

Vax780::Vax780(const MachineConfig &config)
    : memsys_(config.mem),
      tb_(config.tb),
      ibox_(memsys_, tb_),
      ebox_(config.image ? *config.image
                         : config.fpa ? ucode::microcodeImage()
                                      : ucode::microcodeImageNoFpa(),
            memsys_, tb_, ibox_, dispatchFor(config.dispatch))
{
    ebox_.setInterruptController(this);
    ebox_.setDecodeDeliversFirstOperand(config.rmodeDecode);
    // Debug/measurement escape hatch, read once per machine:
    // UPC780_NOLEAP=1 forces the per-cycle path even under threaded
    // dispatch, isolating the dispatcher's contribution from the leap
    // engine's (the two are bit-identical, so this only changes
    // wall-clock speed).
    noLeap_ = std::getenv("UPC780_NOLEAP") != nullptr;
    refreshLeap();
}

const ucode::MicrocodeImage &
Vax780::microcode() const
{
    return ebox_.image();
}

void
Vax780::attachFaultInjector(fault::FaultInjector *inj)
{
    fault_ = inj;
    memsys_.setFaultInjector(inj);
    tb_.setFaultInjector(inj);
    ebox_.setFaultInjector(inj);
    refreshLeap();
}

void
Vax780::attachProbe(CycleProbe *p)
{
    probes_.push_back(p);
    refreshLeap();
}

void
Vax780::detachProbe(CycleProbe *p)
{
    probes_.erase(std::remove(probes_.begin(), probes_.end(), p),
                  probes_.end());
    refreshLeap();
}

void
Vax780::addDevice(Device *d)
{
    // Bring the existing devices current first: the newcomer's first
    // tick belongs to the next cycle, not to a catch-up.
    syncDevices();
    devices_.push_back(d);
    refreshLeap();
}

void
Vax780::refreshLeap()
{
    // Leaving lazy ticking: bring the devices current first, so the
    // per-cycle path resumes from exactly the per-cycle state.
    syncDevices();
    leap_ = leapEligible();
}

bool
Vax780::highestPending(uint32_t &level, uint32_t &vector)
{
    syncDevices();
    uint32_t best_level = 0, best_vector = 0;
    for (Device *d : devices_) {
        uint32_t l = 0, v = 0;
        if (d->requesting(l, v) && l > best_level) {
            best_level = l;
            best_vector = v;
        }
    }
    if (best_level == 0)
        return false;
    level = best_level;
    vector = best_vector;
    return true;
}

void
Vax780::acknowledge(uint32_t level)
{
    syncDevices();
    for (Device *d : devices_) {
        uint32_t l = 0, v = 0;
        if (d->requesting(l, v) && l == level) {
            d->acknowledge();
            return;
        }
    }
}

CycleOut
Vax780::tickOut()
{
    if (fault_) {
        fault_->setNow(cycles_);
        // Fault events detected by the memory/TB/CS hardware raise
        // machine checks, delivered at the next instruction boundary.
        while (fault_->mcheckPending())
            ebox_.raiseMachineCheck(fault_->takeMcheck());
    }

    // Deliver any I-stream fill that completed.
    ibox_.deliver(cycles_);

    // The EBOX consumes one cycle.
    CycleOut out = ebox_.cycle(cycles_);

    // Passive monitors observe the micro-PC and stall state.
    for (CycleProbe *p : probes_)
        p->cycle(out.upc, out.stalled);

    // The I-Fetch engine issues a new reference if a byte is free;
    // it runs concurrently with EBOX stalls.
    ibox_.startFill(cycles_);

    // Devices advance (lazily ticked ones catch up on demand).
    if (!leap_) {
        for (Device *d : devices_)
            d->tick(cycles_);
        devicesAt_ = cycles_ + 1;
    }

    ++cycles_;
    return out;
}

bool
Vax780::tick()
{
    const bool running = !tickOut().halted;
    syncDevices();
    return running;
}

bool
Vax780::leapEligible() const
{
    // Leaps elide per-cycle work, so everything that observes or
    // perturbs individual cycles without a batched equivalent
    // disqualifies them: probes that are not leapable() want every
    // (upc, stalled) pair, fault injectors match on exact cycle
    // numbers, non-batchable devices may depend on being ticked each
    // cycle, and the switch dispatcher stays a pristine per-cycle
    // reference for the dual-dispatch differential tests.
    if (noLeap_ || fault_ != nullptr ||
        ebox_.dispatchMode() != ucode::DispatchMode::Threaded)
        return false;
    for (const CycleProbe *p : probes_) {
        if (!p->leapable())
            return false;
    }
    for (const Device *d : devices_) {
        if (!d->tickBatchable())
            return false;
    }
    return true;
}

uint64_t
Vax780::run(uint64_t max_cycles)
{
    uint64_t n = 0;
    while (n < max_cycles) {
        uint64_t ran = runBatch(max_cycles - n, false);
        n += ran;
        if (ran == 0 || ebox_.halted())
            break;
    }
    return n;
}

uint64_t
Vax780::runBatch(uint64_t budget, bool stop_at_instruction)
{
    uint64_t done = 0;
    const uint64_t insns = ebox_.instructions();
    const bool leap = leap_;
    while (done < budget) {
        // Micro-trace cache: a validated run of pad words needs no
        // dispatch, no IB bytes and no datapath work — only the
        // per-cycle machine plumbing and the uop-cycle count. Pads
        // cannot halt, trap, stall, retire or raise events, so the
        // probe/counter streams below are exactly what tick() emits.
        uint64_t pads = ebox_.padRun();
        if (pads > 0) {
            if (pads > budget - done)
                pads = budget - done;
            uint64_t i = 0;
            while (i < pads) {
                // While the IBox is frozen, the remaining pad cycles
                // have no effect beyond the micro-PC, the probes'
                // observations and the clock — skip to the IBox's
                // next event (or the run's end) in O(1), handing the
                // probes the whole address run at once.
                uint64_t ev;
                if (leap && (ev = ibox_.nextEventAt(cycles_)) > cycles_) {
                    uint64_t n = pads - i;
                    if (ev - cycles_ < n)
                        n = ev - cycles_;
                    const ucode::UAddr first = ebox_.upc();
                    ebox_.padSkip(static_cast<uint32_t>(n));
                    for (CycleProbe *p : probes_)
                        p->padCycles(first, n);
                    cycles_ += n;
                    leaped_ += n;
                    i += n;
                    continue;
                }
                // Per-cycle while anything per-cycle can still
                // happen: probes observe each pad address, the IB
                // fill engine runs until it tops up, devices tick.
                ibox_.deliver(cycles_);
                CycleOut out = ebox_.padCycle();
                for (CycleProbe *p : probes_)
                    p->cycle(out.upc, false);
                ibox_.startFill(cycles_);
                if (!leap_) {
                    for (Device *d : devices_)
                        d->tick(cycles_);
                    devicesAt_ = cycles_ + 1;
                }
                ++cycles_;
                ++i;
            }
            obs::emitPadCycles(pads);
            done += pads;
            continue;
        }

        // Memory-stall window: the EBOX does nothing but decrement
        // its stall counter until it reaches zero, so while the IBox
        // is frozen those cycles are pure clock advancement. Each
        // would have been classified as an EboxStallCycle and seen by
        // the probes at the stalled micro-address.
        if (leap) {
            uint64_t stall = ebox_.stallRun();
            if (stall > 0) {
                uint64_t ev = ibox_.nextEventAt(cycles_);
                if (ev > cycles_) {
                    uint64_t n = std::min(stall, budget - done);
                    if (ev - cycles_ < n)
                        n = ev - cycles_;
                    if (n > 0) {
                        ebox_.stallSkip(n);
                        for (CycleProbe *p : probes_)
                            p->cycles(ebox_.upc(), true, n);
                        cycles_ += n;
                        leaped_ += n;
                        done += n;
                        obs::emitStallCycles(n);
                        continue;
                    }
                }
            }
        }

        CycleOut out = tickOut();
        if (out.halted) {
            syncDevices();
            return done;  // the halting cycle is not counted, as in run()
        }
        ++done;
        if (stop_at_instruction && ebox_.instructions() != insns)
            break;

        // IB-starved stall window: the cycle just executed re-failed
        // an IB gate without consuming or producing anything, and
        // re-runs bit-identically every cycle until the IBox next
        // changes state (an ibStalled return implies no pending TB
        // miss, and a miss can only begin at a startFill that issues
        // — a cycle with nextEventAt == now, which is never skipped).
        if (leap && out.ibStalled && done < budget) {
            uint64_t ev = ibox_.nextEventAt(cycles_);
            if (ev > cycles_) {
                uint64_t n = budget - done;
                if (ev - cycles_ < n)
                    n = ev - cycles_;
                for (CycleProbe *p : probes_)
                    p->cycles(out.upc, false, n);
                cycles_ += n;
                leaped_ += n;
                done += n;
                obs::emitIbStallCycles(n);
            }
        }
    }
    // Checkpoints and callers between batches see per-cycle device
    // state.
    syncDevices();
    return done;
}

void
Vax780::serialize(ByteWriter &w) const
{
    w.u64(cycles_);
    memsys_.serialize(w);
    tb_.serialize(w);
    ibox_.serialize(w);
    ebox_.serialize(w);
}

void
Vax780::deserialize(ByteReader &r)
{
    cycles_ = r.u64();
    // Attached devices are restored by their owner to their state at
    // this cycle.
    devicesAt_ = cycles_;
    memsys_.deserialize(r);
    tb_.deserialize(r);
    ibox_.deserialize(r);
    ebox_.deserialize(r);
}

} // namespace upc780::cpu
