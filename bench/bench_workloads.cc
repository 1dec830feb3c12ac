/**
 * @file
 * Workload sensitivity: the paper reports only the composite of its
 * five workloads and notes that results "are, of course, dependent on
 * the characteristics of that workload" (§6). This bench shows the
 * per-workload spread of the headline metrics, the natural follow-on
 * analysis the retrospective invites. The composite itself, with the
 * paper's values beside every table, is `vaxsim_cli report --vs-paper`.
 *
 * Environment knobs:
 *   UPC780_INSTR  - measured instructions per workload (default 120k)
 *   UPC780_WARMUP - warm-up instructions per workload (default 20k)
 */

#include <cstdio>
#include <cstdlib>

#include "common/table.hh"
#include "obs/hostprof.hh"
#include "sim/engine.hh"
#include "ucode/controlstore.hh"
#include "upc/analyzer.hh"
#include "upc/paper.hh"
#include "workload/profile.hh"

using namespace upc780;

namespace
{

/** Run the composite of the paper's five workloads. */
sim::CompositeResult
runComposite()
{
    uint64_t instr = 120000;
    uint64_t warmup = 20000;
    if (const char *e = std::getenv("UPC780_INSTR"))
        instr = strtoull(e, nullptr, 0);
    if (const char *e = std::getenv("UPC780_WARMUP"))
        warmup = strtoull(e, nullptr, 0);

    sim::ExperimentConfig cfg;
    cfg.instructionsPerWorkload = instr;
    cfg.warmupInstructions = warmup;
    // The engine honors UPC780_JOBS (else all cores); its composite is
    // bit-identical to the serial runner's for any worker count.
    sim::ParallelEngine engine(cfg);
    const unsigned jobs = sim::resolveJobs(0);

    std::fprintf(stderr,
                 "[bench] measuring %llu instructions per workload "
                 "across the five paper workloads (%u worker%s)...\n",
                 static_cast<unsigned long long>(instr), jobs,
                 jobs == 1 ? "" : "s");

    sim::CompositeResult c = engine.runComposite(wkl::paperWorkloads());

    // Sim-rate summary: per-worker measure-phase wall clock summed
    // across the composite, so the rate is per-worker-second (the
    // comparable figure across job counts).
    const uint64_t measured = c.instructions();
    const uint64_t cycles = c.histogram.totalCycles();
    std::fprintf(stderr,
                 "[bench] sim rate: %.0f KIPS, %.0f simulated KHz "
                 "(%.2fx slowdown vs the 5 MHz 780)\n",
                 obs::kips(c.host, measured), obs::simKhz(c.host, cycles),
                 obs::slowdown(c.host, cycles));
    return c;
}

} // namespace

int
main()
{
    const sim::CompositeResult composite = runComposite();
    const auto &image = ucode::microcodeImage();

    std::printf("\nWorkload Sensitivity (per-workload breakdown of "
                "the composite)\n");
    std::printf("(composite of the five paper workloads; measured vs. "
                "Emer & Clark 1984)\n\n");
    TextTable t("Headline metrics by workload");
    t.header({"Workload", "CPI", "SIMPLE%", "FLOAT%", "rd/i", "wr/i",
              "TBmiss/i", "ctxsw hdwy"});

    auto addRow = [&](std::string name, const upc::Histogram &h) {
        upc::HistogramAnalyzer an(h, image);
        auto freq = an.opcodeGroupFrequency();
        auto refs = an.refsTotal();
        auto tb = an.tbMisses();
        t.row({std::move(name), TextTable::num(an.cpi(), 2),
               TextTable::num(freq[size_t(arch::Group::Simple)], 1),
               TextTable::num(freq[size_t(arch::Group::Float)], 1),
               TextTable::num(refs.reads, 2),
               TextTable::num(refs.writes, 2),
               TextTable::num(tb.missesPerInstr, 3),
               TextTable::num(an.contextSwitchHeadway(), 0)});
    };
    for (const auto &w : composite.workloads)
        addRow(w.name.substr(0, w.name.find(" (")), w.histogram);
    t.rule();
    addRow("COMPOSITE", composite.histogram);
    namespace paper = upc::paper;
    t.row({"(paper composite)", TextTable::num(paper::Table8Total, 2),
           TextTable::num(paper::Table1[size_t(arch::Group::Simple)], 1),
           TextTable::num(paper::Table1[size_t(arch::Group::Float)], 1),
           TextTable::num(paper::Table5TotalReads, 2),
           TextTable::num(paper::Table5TotalWrites, 2),
           TextTable::num(paper::TbMissPerInstr, 3),
           TextTable::num(paper::Table7ContextSwitches, 0)});
    t.print();

    std::printf("The scientific workload should show the highest "
                "FLOAT fraction, the commercial one the lowest; CPI "
                "varies across workloads while the structural shape "
                "(Table 8) is stable.\n");
    return 0;
}
