#include "upc/report.hh"

#include <cstdarg>
#include <cstdio>
#include <iterator>
#include <memory>
#include <sstream>
#include <vector>

#include "arch/opcodes.hh"
#include "common/table.hh"
#include "ucode/controlstore.hh"
#include "upc/paper.hh"

namespace upc780::upc
{

namespace
{

std::string
num(double v, int prec = 3)
{
    return TextTable::num(v, prec);
}

double
dbl(uint64_t v)
{
    return static_cast<double>(v);
}

/** Minimal markdown table emitter. */
class MdTable
{
  public:
    explicit MdTable(std::ostringstream &os) : os_(os) {}

    void
    header(const std::vector<std::string> &cells)
    {
        emit(cells);
        os_ << "|";
        for (size_t i = 0; i < cells.size(); ++i)
            os_ << "---|";
        os_ << "\n";
    }

    void
    row(const std::vector<std::string> &cells)
    {
        emit(cells);
    }

  private:
    void
    emit(const std::vector<std::string> &cells)
    {
        os_ << "|";
        for (const auto &c : cells)
            os_ << " " << c << " |";
        os_ << "\n";
    }

    std::ostringstream &os_;
};

/**
 * Dispatches rows to either a TextTable or a markdown table. In the
 * vs-paper view each row gains its paper cells and the table's notes
 * follow it; otherwise both are dropped.
 */
class Sink
{
  public:
    Sink(std::ostringstream &os, const ReportOptions &opt,
         std::string title)
        : os_(os), markdown_(opt.markdown), vsPaper_(opt.vsPaper),
          title_(std::move(title))
    {
    }

    /** @p paper names the paper columns. */
    void
    header(std::vector<std::string> cells,
           const std::vector<std::string> &paper = {})
    {
        paperCols_ = paper.size();
        withPaper(cells, paper);
        if (markdown_) {
            os_ << "\n### " << title_ << "\n\n";
            md_ = std::make_unique<MdTable>(os_);
            md_->header(cells);
        } else {
            text_ = std::make_unique<TextTable>(title_);
            text_->header(std::move(cells));
        }
    }

    /** @p paper holds the row's paper cells; missing ones print "-". */
    void
    row(std::vector<std::string> cells,
        const std::vector<std::string> &paper = {})
    {
        withPaper(cells, paper);
        if (markdown_)
            md_->row(cells);
        else
            text_->row(std::move(cells));
    }

    /** One printf-formatted line under the table. */
    void
    note(const char *format, ...) __attribute__((format(printf, 2, 3)))
    {
        if (!vsPaper_)
            return;
        char buf[320];
        va_list args;
        va_start(args, format);
        std::vsnprintf(buf, sizeof(buf), format, args);
        va_end(args);
        notes_.emplace_back(buf);
    }

    void
    finish()
    {
        if (!markdown_ && text_)
            os_ << "\n" << text_->str();
        if (markdown_ && !notes_.empty())
            os_ << "\n";
        for (const auto &n : notes_)
            os_ << (markdown_ ? "- " : "") << n << "\n";
    }

  private:
    void
    withPaper(std::vector<std::string> &cells,
              const std::vector<std::string> &paper) const
    {
        if (!vsPaper_)
            return;
        for (size_t i = 0; i < paperCols_; ++i)
            cells.push_back(i < paper.size() ? paper[i] : "-");
    }

    std::ostringstream &os_;
    bool markdown_;
    bool vsPaper_;
    std::string title_;
    size_t paperCols_ = 0;
    std::vector<std::string> notes_;
    std::unique_ptr<TextTable> text_;
    std::unique_ptr<MdTable> md_;
};

// The paper's row arrays are indexed by these enums.
static_assert(std::size(paper::Table1) == size_t(arch::Group::NumGroups));
static_assert(std::size(paper::Table2) + 1 ==
              size_t(arch::PcClass::NumClasses));
static_assert(std::size(paper::Table4) ==
              size_t(arch::SpecClass::NumClasses));
static_assert(std::size(paper::Table8) + 1 == size_t(ucode::Row::NumRows));
static_assert(std::size(paper::Table9Total) ==
              size_t(arch::Group::NumGroups));

/** A paper cell: "-" where the paper gives no number. */
std::string
ref(double v, int prec = 3)
{
    return v == paper::NotGiven ? "-" : num(v, prec);
}

} // namespace

std::string
writeReport(const HistogramAnalyzer &an, const ReportHwInputs &hw,
            const ReportOptions &opt)
{
    std::ostringstream os;
    double instr = static_cast<double>(an.instructions());
    if (instr == 0)
        return "(empty measurement)\n";

    os << (opt.markdown ? "# " : "") << opt.title << "\n";
    {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%llu instructions, %llu cycles, %.3f cycles "
                      "per average instruction (%.2f us at 200 ns)\n",
                      static_cast<unsigned long long>(
                          an.instructions()),
                      static_cast<unsigned long long>(an.cycles()),
                      an.cpi(), an.cpi() * 0.2);
        os << buf;
    }

    // ----- Table 1 --------------------------------------------------------
    {
        Sink t(os, opt, "Table 1: Opcode group frequency");
        t.header({"Group", "Percent"}, {"Paper"});
        auto f = an.opcodeGroupFrequency();
        for (size_t g = 0; g < size_t(arch::Group::NumGroups); ++g) {
            t.row({std::string(arch::groupName(
                       static_cast<arch::Group>(g))),
                   num(f[g], 2)},
                  {ref(paper::Table1[g], 2)});
        }
        t.finish();
    }

    // ----- Table 2 --------------------------------------------------------
    {
        Sink t(os, opt, "Table 2: PC-changing instructions");
        t.header({"Class", "% of all", "% taken", "taken % of all"},
                 {"Paper % of all", "Paper % taken", "Paper taken %"});
        auto rows = an.pcChanging();
        double tot = 0, taken = 0;
        for (size_t c = 1; c < size_t(arch::PcClass::NumClasses); ++c) {
            const auto &r = rows[c];
            if (!r.executed)
                continue;
            tot += static_cast<double>(r.executed);
            taken += static_cast<double>(r.taken);
            const auto &p = paper::Table2[c - 1];
            t.row({std::string(arch::pcClassName(
                       static_cast<arch::PcClass>(c))),
                   num(100.0 * dbl(r.executed) / instr, 1),
                   num(100.0 * dbl(r.taken) / dbl(r.executed), 0),
                   num(100.0 * dbl(r.taken) / instr, 1)},
                  {ref(p.pctOfAll, 1), ref(p.pctBranch, 0),
                   ref(p.branchOfAll, 1)});
        }
        t.row({"TOTAL", num(100.0 * tot / instr, 1),
               num(tot ? 100.0 * taken / tot : 0, 0),
               num(100.0 * taken / instr, 1)},
              {ref(paper::Table2TotalPct, 1),
               ref(paper::Table2TotalBranchPct, 0),
               ref(paper::Table2TotalBranchOfAll, 1)});
        t.finish();
    }

    // ----- Table 3 --------------------------------------------------------
    {
        Sink t(os, opt, "Table 3: Specifiers per average instruction");
        t.header({"Object", "Per instruction"}, {"Paper"});
        t.row({"First specifiers", num(an.firstSpecsPerInstr())},
              {ref(paper::Table3First)});
        t.row({"Other specifiers", num(an.otherSpecsPerInstr())},
              {ref(paper::Table3Other)});
        t.row({"Branch displacements", num(an.branchDispsPerInstr())},
              {ref(paper::Table3BranchDisp)});
        t.note("Specifiers per instruction: %.3f (paper %.3f)",
               an.firstSpecsPerInstr() + an.otherSpecsPerInstr(),
               paper::Table3First + paper::Table3Other);
        t.finish();
    }

    // ----- Table 4 --------------------------------------------------------
    {
        Sink t(os, opt,
               "Table 4: Operand specifier distribution (percent)");
        t.header({"Mode", "SPEC1", "SPEC2-6", "Total"},
                 {"Paper SPEC1", "Paper SPEC2-6", "Paper total"});
        auto d = an.specifierDist();
        double t1 = static_cast<double>(d.total[1]);
        double t0 = static_cast<double>(d.total[0]);
        for (size_t c = 0; c < size_t(arch::SpecClass::NumClasses);
             ++c) {
            auto cls = static_cast<arch::SpecClass>(c);
            const auto &p = paper::Table4[c];
            t.row({std::string(arch::specClassName(cls)),
                   num(t1 ? 100.0 * dbl(d.byClass[1][c]) / t1 : 0, 1),
                   num(t0 ? 100.0 * dbl(d.byClass[0][c]) / t0 : 0, 1),
                   num(t1 + t0 ? 100.0 * dbl(d.classTotal(cls)) /
                                     (t1 + t0)
                               : 0,
                       1)},
                  {ref(p.spec1, 1), ref(p.spec26, 1), ref(p.total, 1)});
        }
        t.row({"Percent indexed",
               num(t1 ? 100.0 * dbl(d.indexed[1]) / t1 : 0, 1),
               num(t0 ? 100.0 * dbl(d.indexed[0]) / t0 : 0, 1),
               num(t1 + t0 ? 100.0 * dbl(d.indexed[0] + d.indexed[1]) /
                                 (t1 + t0)
                           : 0,
                   1)},
              {ref(paper::Table4IndexedSpec1, 1),
               ref(paper::Table4IndexedSpec26, 1),
               ref(paper::Table4IndexedTotal, 1)});
        t.finish();
    }

    // ----- Table 5 --------------------------------------------------------
    {
        Sink t(os, opt,
               "Table 5: D-stream reads and writes per instruction");
        t.header({"Source", "Reads", "Writes"},
                 {"Paper reads", "Paper writes"});
        using ucode::Row;
        static const std::pair<const char *, Row> rows[] = {
            {"Spec1", Row::Spec1},        {"Spec2-6", Row::Spec26},
            {"Simple", Row::ExSimple},    {"Field", Row::ExField},
            {"Float", Row::ExFloat},      {"Call/Ret", Row::ExCallRet},
            {"System", Row::ExSystem},    {"Character",
                                           Row::ExCharacter},
            {"Decimal", Row::ExDecimal},  {"Mem Mgmt", Row::MemMgmt},
            {"Int/Except", Row::IntExcept},
        };
        for (const auto &[name, row] : rows) {
            auto rr = an.refsFor(row);
            std::vector<std::string> p;
            for (const auto &pr : paper::Table5)
                if (pr.row == row)
                    p = {ref(pr.reads), ref(pr.writes)};
            t.row({name, num(rr.reads), num(rr.writes)}, p);
        }
        auto tot = an.refsTotal();
        t.row({"TOTAL", num(tot.reads), num(tot.writes)},
              {ref(paper::Table5TotalReads),
               ref(paper::Table5TotalWrites)});
        RefRow other;
        for (Row r : {Row::Decode, Row::BDisp, Row::IntExcept,
                      Row::MemMgmt, Row::Abort}) {
            auto rr = an.refsFor(r);
            other.reads += rr.reads;
            other.writes += rr.writes;
        }
        t.note("Other (decode, B-disp, Int/Except, Mem Mgmt, abort): "
               "%.3f reads (paper %.3f), %.3f writes (paper %.3f)",
               other.reads, paper::Table5OtherReads, other.writes,
               paper::Table5OtherWrites);
        t.note("Read/write ratio: %.2f : 1 (paper about 2 : 1, "
               "section 3.3.1)",
               tot.writes > 0 ? tot.reads / tot.writes : 0.0);
        t.finish();
    }

    // ----- Table 6 --------------------------------------------------------
    {
        Sink t(os, opt, "Table 6: Estimated size of average instruction");
        t.header({"Quantity", "Value"}, {"Paper"});
        t.row({"Estimated specifier size (bytes)",
               num(an.estimatedSpecifierBytes(), 2)});
        t.row({"Estimated instruction size (bytes)",
               num(an.estimatedInstrBytes(), 2)},
              {ref(paper::Table6Total, 1)});
        if (hw.ibFills) {
            t.row({"IB references per instruction (hw)",
                   num(dbl(hw.ibFills) / instr, 2)},
                  {ref(paper::IbRefsPerInstr, 1)});
        }
        const double specs =
            an.firstSpecsPerInstr() + an.otherSpecsPerInstr();
        const double bdisp = an.branchDispsPerInstr();
        t.note("Bytes per instruction: opcode 1.00, specifiers "
               "%.2f x %.2f = %.2f (paper %.2f), branch displacements "
               "%.2f x %.2f = %.2f (paper %.2f)",
               specs, an.estimatedSpecifierBytes(),
               specs * an.estimatedSpecifierBytes(),
               paper::Table6SpecifierBytes, bdisp,
               paper::Table6BranchDispSize,
               bdisp * paper::Table6BranchDispSize,
               paper::Table6BranchDispBytes);
        t.note("Cross-check: the IB made %.2f references per "
               "instruction (paper %.1f), implying %.1f bytes per "
               "instruction at the paper's %.1f bytes per reference",
               dbl(hw.ibFills) / instr, paper::IbRefsPerInstr,
               dbl(hw.ibFills) / instr * paper::IbBytesPerRef,
               paper::IbBytesPerRef);
        t.finish();
    }

    // ----- Table 7 --------------------------------------------------------
    {
        Sink t(os, opt, "Table 7: Interrupt and context-switch headway");
        t.header({"Event", "Instruction headway"}, {"Paper"});
        if (hw.softIntRequests) {
            t.row({"Software interrupt requests",
                   num(instr / dbl(hw.softIntRequests), 0)},
                  {ref(paper::Table7SoftIntRequests, 0)});
        }
        t.row({"Hardware and software interrupts",
               num(an.interruptHeadway(), 0)},
              {ref(paper::Table7Interrupts, 0)});
        t.row({"Context switches", num(an.contextSwitchHeadway(), 0)},
              {ref(paper::Table7ContextSwitches, 0)});
        t.note("Device totals since boot, warm-up included: %llu "
               "timer and %llu terminal interrupts, %llu system "
               "services",
               static_cast<unsigned long long>(hw.timerInterrupts),
               static_cast<unsigned long long>(hw.terminalInterrupts),
               static_cast<unsigned long long>(hw.syscalls));
        t.finish();
    }

    // ----- Table 8 --------------------------------------------------------
    {
        Sink t(os, opt, "Table 8: Average instruction timing (cycles)");
        t.header({"Activity", "Compute", "Read", "R-Stall", "Write",
                  "W-Stall", "IB-Stall", "Total"},
                 {"Paper total"});
        auto m = an.timingMatrix();
        using ucode::Row;
        for (size_t r = 1; r < size_t(Row::NumRows); ++r) {
            Row row = static_cast<Row>(r);
            const auto &c = m.cell[r];
            t.row({std::string(ucode::rowName(row)),
                   num(c[size_t(Col::Compute)]), num(c[size_t(Col::Read)]),
                   num(c[size_t(Col::RStall)]), num(c[size_t(Col::Write)]),
                   num(c[size_t(Col::WStall)]),
                   num(c[size_t(Col::IbStall)]), num(m.rowTotal(row))},
                  {ref(paper::Table8[r - 1].total)});
        }
        t.row({"TOTAL", num(m.colTotal(Col::Compute)),
               num(m.colTotal(Col::Read)), num(m.colTotal(Col::RStall)),
               num(m.colTotal(Col::Write)), num(m.colTotal(Col::WStall)),
               num(m.colTotal(Col::IbStall)), num(m.total())},
              {ref(paper::Table8Total)});
        t.note("Paper column totals: Compute %.3f, Read %.3f, R-Stall "
               "%.3f, Write %.3f, W-Stall %.3f, IB-Stall %.3f, Total "
               "%.3f",
               paper::Table8Compute, paper::Table8Read,
               paper::Table8RStall, paper::Table8Write,
               paper::Table8WStall, paper::Table8IbStall,
               paper::Table8Total);
        // Every cycle is in exactly one cell, so the matrix total must
        // equal the measured CPI.
        t.note("Conservation check: matrix total %.3f vs CPI %.3f "
               "(must match)",
               m.total(), an.cpi());
        t.note("Decode + specifier processing (with stalls): %.1f%% "
               "of all time (paper: almost half)",
               100.0 *
                   (m.rowTotal(Row::Decode) + m.rowTotal(Row::Spec1) +
                    m.rowTotal(Row::Spec26) + m.rowTotal(Row::BDisp)) /
                   m.total());
        // The §5 what-ifs, recomputed from this measurement exactly
        // as the authors computed them from theirs.
        double pc = 0;
        for (const auto &r : an.pcChanging())
            pc += dbl(r.executed);
        pc /= instr;
        t.note("Section 5: overlapping the decode cycle (as the later "
               "11/750 did) would save up to %.2f cycles/instruction "
               "(1 cycle on each of the %.0f%% of instructions that do "
               "not change the PC)",
               1.0 - pc, 100.0 * (1.0 - pc));
        const double field_w =
            m.cell[size_t(Row::ExField)][size_t(Col::Write)];
        t.note("Section 5: optimizing FIELD memory writes would pay "
               "off at most %.3f cycles/instruction (%.2f%% of total "
               "performance), the paper's example of an optimization "
               "NOT worth doing",
               field_w, 100.0 * field_w / m.total());
        t.note("Section 5: the execute phase of SIMPLE instructions "
               "(~85%% of executions) is only %.1f%% of all time",
               100.0 * m.cell[size_t(Row::ExSimple)]
                             [size_t(Col::Compute)] /
                   m.total());
        t.finish();
    }

    // ----- Table 9 --------------------------------------------------------
    {
        Sink t(os, opt,
               "Table 9: Cycles per instruction within each group");
        t.header({"Group", "Compute", "Read", "R-Stall", "Write",
                  "W-Stall", "Total"},
                 {"Paper total"});
        for (size_t g = 0; g < size_t(arch::Group::NumGroups); ++g) {
            auto gg = static_cast<arch::Group>(g);
            auto c = an.groupCycles(gg);
            double total = 0;
            for (double v : c)
                total += v;
            t.row({std::string(arch::groupName(gg)),
                   num(c[size_t(Col::Compute)], 2),
                   num(c[size_t(Col::Read)], 2),
                   num(c[size_t(Col::RStall)], 2),
                   num(c[size_t(Col::Write)], 2),
                   num(c[size_t(Col::WStall)], 2), num(total, 2)},
                  {ref(paper::Table9Total[g], 2)});
        }
        auto cr = an.groupCycles(arch::Group::CallRet);
        t.note("Call/Ret reads+writes per instruction: %.1f (paper: "
               "about 4 each way, so about 8 registers pushed/popped "
               "per call+return pair)",
               cr[size_t(Col::Read)] + cr[size_t(Col::Write)]);
        auto ch = an.groupCycles(arch::Group::Character);
        t.note("Character reads+writes per instruction: %.1f longwords "
               "(paper: 9 to 11, so 36-44 byte strings)",
               ch[size_t(Col::Read)] + ch[size_t(Col::Write)]);
        t.finish();
    }

    // ----- Implementation events -------------------------------------------
    {
        Sink t(os, opt, "Implementation events");
        t.header({"Event", "Per instruction"}, {"Paper"});
        auto tb = an.tbMisses();
        t.row({"TB misses", num(tb.missesPerInstr, 4)},
              {ref(paper::TbMissPerInstr)});
        t.row({"TB misses (D-stream)", num(tb.dMissesPerInstr, 4)},
              {ref(paper::TbDMissPerInstr)});
        t.row({"TB misses (I-stream)", num(tb.iMissesPerInstr, 4)},
              {ref(paper::TbIMissPerInstr)});
        t.row({"TB service cycles per miss", num(tb.cyclesPerMiss, 1)},
              {ref(paper::TbServiceCycles, 1)});
        t.row({"TB service stall cycles", num(tb.stallCyclesPerMiss, 1)},
              {ref(paper::TbServiceStallCycles, 1)});
        if (hw.ibFills)
            t.row({"IB references (hw)",
                   num(dbl(hw.ibFills) / instr, 2)},
                  {ref(paper::IbRefsPerInstr, 1)});
        if (hw.iReadMisses)
            t.row({"Cache I-miss (hw)",
                   num(dbl(hw.iReadMisses) / instr, 3)},
                  {ref(paper::CacheIMissPerInstr, 2)});
        if (hw.dReadMisses)
            t.row({"Cache D-miss (hw)",
                   num(dbl(hw.dReadMisses) / instr, 3)},
                  {ref(paper::CacheDMissPerInstr, 2)});
        if (hw.unalignedRefs)
            t.row({"Unaligned refs (hw)",
                   num(dbl(hw.unalignedRefs) / instr, 4)},
                  {ref(paper::UnalignedPerInstr)});
        t.finish();
    }

    os << "\n";
    return os.str();
}

} // namespace upc780::upc
