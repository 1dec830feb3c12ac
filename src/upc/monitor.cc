#include "upc/monitor.hh"

#include "common/serial.hh"
#include "obs/counters.hh"

namespace upc780::upc
{

void
UpcMonitor::cycle(ucode::UAddr upc, bool stalled)
{
    if (!running_)
        return;
    ++observed_;
    // The board's own view of the measurement window, counted into the
    // obs fabric: upc.cycles must equal the histogram's bucket sum (the
    // cycle-accounting audit) and upc.stall_cycles its stall total.
    obs::count(obs::Ev::UpcCycles);
    if (stalled) {
        histogram_.bumpStall(upc);
        obs::count(obs::Ev::UpcStallCycles);
    } else {
        histogram_.bumpCount(upc);
    }
}

void
UpcMonitor::cycles(ucode::UAddr upc, bool stalled, uint64_t n)
{
    if (!running_)
        return;
    observed_ += n;
    obs::count(obs::Ev::UpcCycles, n);
    if (stalled) {
        histogram_.addStall(upc, n);
        obs::count(obs::Ev::UpcStallCycles, n);
    } else {
        histogram_.addCount(upc, n);
    }
}

void
UpcMonitor::padCycles(ucode::UAddr first_upc, uint64_t n)
{
    if (!running_)
        return;
    observed_ += n;
    obs::count(obs::Ev::UpcCycles, n);
    for (uint64_t i = 0; i < n; ++i)
        histogram_.bumpCount(static_cast<ucode::UAddr>(first_upc + i));
}

void
UpcMonitor::writeCsr(uint16_t v)
{
    if (v & static_cast<uint16_t>(Csr::Clear))
        clear();
    running_ = v & static_cast<uint16_t>(Csr::Go);
}

uint16_t
UpcMonitor::readCsr() const
{
    return running_ ? static_cast<uint16_t>(Csr::Go) : 0;
}

uint64_t
UpcMonitor::readDataPort(bool stall_bank) const
{
    ucode::UAddr a = static_cast<ucode::UAddr>(
        addrPort_ % Histogram::NumBuckets);
    return stall_bank ? histogram_.stall(a) : histogram_.count(a);
}

void
UpcMonitor::serialize(ByteWriter &w) const
{
    histogram_.serialize(w);
    w.b(running_);
    w.u64(observed_);
    w.u16(addrPort_);
}

void
UpcMonitor::deserialize(ByteReader &r)
{
    histogram_.deserialize(r);
    running_ = r.b();
    observed_ = r.u64();
    addrPort_ = r.u16();
}

} // namespace upc780::upc
