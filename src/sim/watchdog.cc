#include "sim/watchdog.hh"

#include <sstream>

#include "common/error.hh"
#include "common/serial.hh"

namespace upc780::sim
{

Watchdog::Watchdog(const ucode::MicrocodeImage &image,
                   uint64_t interval_cycles, uint64_t max_stall_run)
    : img_(image), interval_(interval_cycles), maxStallRun_(max_stall_run)
{
    if (interval_ == 0 || maxStallRun_ == 0)
        sim_throw(ConfigError, "watchdog thresholds must be nonzero");
}

void
Watchdog::cycle(ucode::UAddr upc, bool stalled)
{
    ++cycles_;
    trace_[traceHead_] = {upc, stalled};
    traceHead_ = (traceHead_ + 1) % TraceDepth;

    if (stalled) {
        ++stallRun_;
    } else {
        stallRun_ = 0;
        lastCommittedUpc_ = upc;
        if (upc == img_.marks.decode) {
            ++decodes_;
            cyclesAtLastDecode_ = cycles_;
        }
    }
}

void
Watchdog::cycles(ucode::UAddr upc, bool stalled, uint64_t n)
{
    if (n == 0)
        return;
    // Only the last TraceDepth samples survive in the ring; all are
    // identical here, so fill that many slots from the head.
    const uint64_t kept = n < TraceDepth ? n : TraceDepth;
    for (uint64_t k = 0; k < kept; ++k)
        trace_[(traceHead_ + k) % TraceDepth] = {upc, stalled};
    traceHead_ = static_cast<uint32_t>((traceHead_ + n) % TraceDepth);
    cycles_ += n;

    if (stalled) {
        stallRun_ += n;
    } else {
        stallRun_ = 0;
        lastCommittedUpc_ = upc;
        if (upc == img_.marks.decode) {
            decodes_ += n;
            cyclesAtLastDecode_ = cycles_;
        }
    }
}

void
Watchdog::padCycles(ucode::UAddr first_upc, uint64_t n)
{
    if (n == 0)
        return;
    // Cycle k observes first_upc + k; only the last TraceDepth
    // samples survive, each in the slot cycle() would have used.
    const uint64_t c0 = cycles_;
    for (uint64_t k = n > TraceDepth ? n - TraceDepth : 0; k < n; ++k)
        trace_[(traceHead_ + k) % TraceDepth] = {
            static_cast<ucode::UAddr>(first_upc + k), false};
    traceHead_ = static_cast<uint32_t>((traceHead_ + n) % TraceDepth);
    cycles_ += n;

    stallRun_ = 0;
    lastCommittedUpc_ = static_cast<ucode::UAddr>(first_upc + n - 1);
    // A pad run is far shorter than the control store, so it passes
    // the decode landmark at most once.
    const uint64_t k =
        static_cast<ucode::UAddr>(img_.marks.decode - first_upc);
    if (k < n) {
        ++decodes_;
        cyclesAtLastDecode_ = c0 + k + 1;
    }
}

bool
Watchdog::expired() const
{
    if (stallRun_ >= maxStallRun_)
        return true;
    return cycles_ - cyclesAtLastDecode_ >= interval_;
}

std::string
Watchdog::diagnostic() const
{
    const Sample &last =
        trace_[(traceHead_ + TraceDepth - 1) % TraceDepth];

    std::ostringstream os;
    os << "watchdog: no forward progress\n"
       << "  cycles observed:      " << cycles_ << "\n"
       << "  instruction decodes:  " << decodes_ << "\n"
       << "  cycles since decode:  " << (cycles_ - cyclesAtLastDecode_)
       << "\n"
       << "  consecutive stalls:   " << stallRun_ << "\n"
       << "  current upc:          0x" << std::hex << last.upc
       << std::dec << " (" << ucode::rowName(img_.rowOf(last.upc))
       << (last.stalled ? ", stalled" : "") << ")\n"
       << "  last committed upc:   0x" << std::hex << lastCommittedUpc_
       << std::dec << " ("
       << ucode::rowName(img_.rowOf(lastCommittedUpc_)) << ")\n";
    if (checkpointCycle_ == NoCheckpoint)
        os << "  nearest checkpoint:   none\n";
    else
        os << "  nearest checkpoint:   cycle " << checkpointCycle_
           << "\n";
    os << "  trailing upc trace (oldest first):\n";

    uint32_t n = cycles_ < TraceDepth ? static_cast<uint32_t>(cycles_)
                                      : TraceDepth;
    for (uint32_t i = 0; i < n; ++i) {
        const Sample &s =
            trace_[(traceHead_ + TraceDepth - n + i) % TraceDepth];
        os << "    0x" << std::hex << s.upc << std::dec << "  "
           << ucode::rowName(img_.rowOf(s.upc))
           << (s.stalled ? "  [stall]" : "") << "\n";
    }
    return os.str();
}

void
Watchdog::serialize(ByteWriter &w) const
{
    w.u64(cycles_);
    w.u64(decodes_);
    w.u64(cyclesAtLastDecode_);
    w.u64(stallRun_);
    w.u16(lastCommittedUpc_);
    for (const Sample &s : trace_) {
        w.u16(s.upc);
        w.b(s.stalled);
    }
    w.u32(traceHead_);
}

void
Watchdog::deserialize(ByteReader &r)
{
    cycles_ = r.u64();
    decodes_ = r.u64();
    cyclesAtLastDecode_ = r.u64();
    stallRun_ = r.u64();
    lastCommittedUpc_ = r.u16();
    for (Sample &s : trace_) {
        s.upc = r.u16();
        s.stalled = r.b();
    }
    traceHead_ = r.u32();
    if (traceHead_ >= TraceDepth)
        sim_throw(SnapshotError,
                  "snapshot watchdog trace head %u out of range",
                  traceHead_);
}

} // namespace upc780::sim
