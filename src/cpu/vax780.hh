/**
 * @file
 * The complete VAX-11/780 machine model: EBOX + IBox + TB + memory
 * subsystem + devices, advanced one 200 ns cycle at a time. Hardware
 * monitors (the UPC histogram board, the cache-study counters) attach
 * here as passive probes, exactly as the paper's monitor attached to
 * the real machine's backplane.
 */

#ifndef UPC780_CPU_VAX780_HH
#define UPC780_CPU_VAX780_HH

#include <memory>
#include <vector>

#include "cpu/ebox.hh"
#include "cpu/ibox.hh"
#include "mem/memsys.hh"
#include "mmu/tb.hh"
#include "ucode/controlstore.hh"

namespace upc780::cpu
{

/**
 * Passive per-cycle probe (the UPC monitor implements this). The probe
 * sees the control-store address of each cycle and whether it was a
 * read/write-stalled cycle — nothing else, matching the visibility of
 * the paper's hardware monitor.
 *
 * Batched entry: the idle-leap engine in Vax780::runBatch delivers a
 * provably idle window of n cycles in one call instead of n cycle()
 * calls — cycles() for a run of identical (upc, stalled) pairs (a
 * memory-stall or IB-stall window), padCycles() for a pad superblock
 * (addresses first_upc, first_upc + 1, ..., never stalled). The
 * defaults replay the window through cycle(), so every probe is
 * correct under batching; a probe that implements both forms so they
 * leave it in exactly the state n cycle() calls would opts in with
 * leapable(). One probe that does not opt in keeps the whole machine
 * on the per-cycle path.
 */
class CycleProbe
{
  public:
    virtual ~CycleProbe() = default;
    virtual void cycle(ucode::UAddr upc, bool stalled) = 0;

    /** @p n consecutive cycles, each observing (upc, stalled). */
    virtual void
    cycles(ucode::UAddr upc, bool stalled, uint64_t n)
    {
        for (uint64_t i = 0; i < n; ++i)
            cycle(upc, stalled);
    }

    /** @p n unstalled pad cycles at first_upc, first_upc + 1, .... */
    virtual void
    padCycles(ucode::UAddr first_upc, uint64_t n)
    {
        for (uint64_t i = 0; i < n; ++i)
            cycle(static_cast<ucode::UAddr>(first_upc + i), false);
    }

    /** True if cycles()/padCycles() are exact batches (see above). */
    virtual bool leapable() const { return false; }
};

/** A bus device that can request interrupts. */
class Device
{
  public:
    virtual ~Device() = default;
    /** Advance device state to @p now (see tickBatchable()). */
    virtual void tick(uint64_t now) = 0;
    /** Interrupt request: fill level/vector if requesting. */
    virtual bool requesting(uint32_t &level, uint32_t &vector) = 0;
    /** The CPU dispatched this device's interrupt. */
    virtual void acknowledge() = 0;

    /**
     * Catch-up contract: a batchable device promises that one
     * tick(T) call observes exactly the state per-cycle ticks
     * tick(T0)...tick(T) would have produced — its evolution between
     * acknowledge() calls depends only on the current cycle number,
     * never on being called each cycle. While the machine may leap
     * (Vax780::runBatch), it then ticks batchable devices lazily:
     * no per-cycle tick() at all, and one catch-up tick(C - 1) at
     * cycle C whenever device state can be observed — before every
     * requesting()/acknowledge() the EBOX triggers through
     * Vax780::highestPending()/acknowledge(), wherever the owner
     * calls Vax780::syncDevices() (the OS's terminal ISR before it
     * drains due input), and at every runBatch()/tick() exit, so a
     * checkpoint or an inspecting caller sees exactly the per-cycle
     * state. Devices that need to be called every cycle keep the
     * default, which also keeps the machine from leaping.
     */
    virtual bool tickBatchable() const { return false; }
};

/** Machine configuration. */
struct MachineConfig
{
    mem::MemSysConfig mem;
    mmu::TbConfig tb;
    bool fpa = true;  //!< Floating Point Accelerator installed
    /** RMODE decode optimization (see Ebox); off keeps exact counts. */
    bool rmodeDecode = false;

    /**
     * Explicit microprogram image, overriding the fpa-selected shipped
     * image. The pointed-to image must outlive the machine. Intended
     * for the lint tests, which run a deliberately defective copy of
     * the microprogram.
     */
    const ucode::MicrocodeImage *image = nullptr;

    /**
     * EBOX dispatch mode override. Default follows the process-wide
     * ucode::dispatchMode() (UPC780_DISPATCH env, else the build
     * default); the dual-dispatch differential tests pin each machine
     * explicitly so both interpreters run in one process.
     */
    enum class Dispatch : uint8_t { Default, Threaded, Switch };
    Dispatch dispatch = Dispatch::Default;

    /**
     * Field-wise equality (the custom image compares by identity —
     * two configs pointing at different image objects are different
     * machines even if the images' bytes agree; content-level
     * equivalence is the cache key's business, see svc/cachekey.hh).
     */
    bool operator==(const MachineConfig &) const = default;
};

/** The composed machine. */
class Vax780 : public InterruptController
{
  public:
    explicit Vax780(const MachineConfig &config = MachineConfig{});

    /** One machine cycle. Returns false once halted. */
    bool tick();

    /** Run until halted or @p max_cycles elapse. */
    uint64_t run(uint64_t max_cycles);

    /**
     * Run up to @p budget cycles, leaping over provably idle windows
     * (threaded dispatch only; elsewhere this is a plain tick loop).
     * Three window classes are eligible — pad superblocks, memory
     * read/write stall windows and IB-starved stall windows — and a
     * leap is taken only while the IBox is frozen (IBox::nextEventAt).
     * Whether the machine may leap at all is decided when probes,
     * devices or the fault injector change (leapEligible()): every
     * probe must be leapable() and is handed each leaped window as one
     * batched CycleProbe::cycles()/padCycles() call, every device must
     * honour the tickBatchable() catch-up contract and is then ticked
     * lazily, no fault injector may be armed, the dispatcher must be
     * threaded and UPC780_NOLEAP must have been unset when the machine
     * was built. Otherwise every cycle performs the full tick
     * sequence. Either way the architected state, probe observations,
     * counter totals and event streams are bit-identical to
     * tick()-stepping. Stops early once halted, or (with
     * @p stop_at_instruction) as soon as the retired-instruction
     * count changes, so callers can re-evaluate per-instruction
     * conditions exactly. Returns cycles run; the halting cycle
     * itself is not counted (as in run()).
     */
    uint64_t runBatch(uint64_t budget, bool stop_at_instruction);

    uint64_t cycles() const { return cycles_; }

    Ebox &ebox() { return ebox_; }
    IBox &ibox() { return ibox_; }

    /** The microprogram this machine runs. */
    const ucode::MicrocodeImage &microcode() const;
    mem::MemorySubsystem &memsys() { return memsys_; }
    mmu::TranslationBuffer &tb() { return tb_; }

    /**
     * Cycles runBatch() has leaped rather than stepped (a statistic
     * of this machine object: not serialized, zero when it never
     * leaps).
     */
    uint64_t leapedCycles() const { return leaped_; }

    /** Attach a passive per-cycle probe (multiple allowed). */
    void attachProbe(CycleProbe *p);
    void detachProbe(CycleProbe *p);

    /** Register an interrupting device. */
    void addDevice(Device *d);

    /**
     * Catch lazily ticked devices up to the current cycle (see
     * Device::tickBatchable): call before observing device state from
     * inside a cycle, e.g. from an OS-assist hook. A no-op when the
     * devices are already current.
     */
    void
    syncDevices()
    {
        if (devicesAt_ < cycles_) {
            for (Device *d : devices_)
                d->tick(cycles_ - 1);
            devicesAt_ = cycles_;
        }
    }

    /**
     * Attach a fault injector to every fault site of the machine
     * (memory ECC, SBI timeouts, TB parity, control-store parity) and
     * route its machine-check events to the EBOX. Pass null to detach;
     * a detached machine is cycle-for-cycle identical to one that
     * never had an injector.
     */
    void attachFaultInjector(fault::FaultInjector *inj);

    // InterruptController (aggregates devices for the EBOX).
    bool highestPending(uint32_t &level, uint32_t &vector) override;
    void acknowledge(uint32_t level) override;

    /**
     * Checkpoint the core machine: cycle counter, EBOX, IBox, TB and
     * memory hierarchy. Probes, devices and the fault injector are
     * attached components with their own serialization, owned by
     * whoever attached them.
     */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);

  private:
    /** One machine cycle; the EBOX's CycleOut for the leap engine. */
    CycleOut tickOut();

    /** Recompute leap_ after probes, devices or the injector change. */
    void refreshLeap();

    /** True when runBatch may leap idle windows (see runBatch). */
    bool leapEligible() const;

    mem::MemorySubsystem memsys_;
    mmu::TranslationBuffer tb_;
    IBox ibox_;
    Ebox ebox_;

    std::vector<CycleProbe *> probes_;
    std::vector<Device *> devices_;
    fault::FaultInjector *fault_ = nullptr;
    uint64_t cycles_ = 0;

    /** UPC780_NOLEAP was set when this machine was built. */
    bool noLeap_ = false;
    /** Cached leapEligible(); also selects lazy device ticking. */
    bool leap_ = false;
    /** Devices have been ticked through cycle devicesAt_ - 1. */
    uint64_t devicesAt_ = 0;
    uint64_t leaped_ = 0;
};

} // namespace upc780::cpu

#endif // UPC780_CPU_VAX780_HH
