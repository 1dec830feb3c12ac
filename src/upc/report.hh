/**
 * @file
 * Report writer: renders a complete Emer & Clark-style results
 * section (Tables 1-9 plus the implementation events) from one
 * histogram + hardware-counter measurement, as plain text or
 * markdown, optionally with the paper's own values beside every row.
 * This produces the whole packet in one call, which is how the paper's
 * authors used their data-reduction programs (§2.2: "a general
 * resource from which the answers to many questions ... can be
 * obtained").
 */

#ifndef UPC780_UPC_REPORT_HH
#define UPC780_UPC_REPORT_HH

#include <cstdint>
#include <string>

#include "upc/analyzer.hh"

namespace upc780::upc
{

/** Hardware-side numbers the histogram cannot see (cache study [2]). */
struct ReportHwInputs
{
    uint64_t ibFills = 0;
    uint64_t iReadMisses = 0;
    uint64_t dReadMisses = 0;
    uint64_t unalignedRefs = 0;
    uint64_t softIntRequests = 0;  //!< kernel-counted (MTPR shared)
    // Device totals since boot, printed only in the vs-paper view.
    uint64_t timerInterrupts = 0;
    uint64_t terminalInterrupts = 0;
    uint64_t syscalls = 0;
};

/** Report configuration. */
struct ReportOptions
{
    bool markdown = false;   //!< pipe tables instead of aligned text
    /**
     * Append the paper's values (upc/paper.hh) to every row, "-" where
     * the paper gives none, and print the derived checks and §5
     * what-ifs under the tables they come from.
     */
    bool vsPaper = false;
    std::string title = "VAX-11/780 UPC Measurement Report";
};

/** Render the full report. */
std::string writeReport(const HistogramAnalyzer &analyzer,
                        const ReportHwInputs &hw,
                        const ReportOptions &options = {});

} // namespace upc780::upc

#endif // UPC780_UPC_REPORT_HH
