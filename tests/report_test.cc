/**
 * @file
 * Report-writer tests: the full report renders every table in both
 * text and markdown, and the numbers embedded in it agree with the
 * analyzer they came from.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "ucode/controlstore.hh"
#include "upc/report.hh"
#include "workload/profile.hh"

using namespace upc780;

namespace
{

/** Shared small measurement for all report tests. */
const sim::WorkloadResult &
measurement()
{
    static const sim::WorkloadResult r = [] {
        sim::ExperimentConfig cfg;
        cfg.instructionsPerWorkload = 15000;
        cfg.warmupInstructions = 3000;
        sim::ExperimentRunner runner(cfg);
        auto p = wkl::timesharing1Profile();
        p.users = 6;
        return runner.runWorkload(p);
    }();
    return r;
}

} // namespace

TEST(Report, TextContainsEveryTable)
{
    const auto &m = measurement();
    upc::HistogramAnalyzer an(m.histogram, ucode::microcodeImage());
    upc::ReportHwInputs hw;
    hw.ibFills = m.hw.ibFills;
    std::string s = upc::writeReport(an, hw);

    for (const char *needle :
         {"Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
          "Table 6", "Table 7", "Table 8", "Table 9",
          "Implementation events", "SIMPLE", "SPEC2-6", "Mem Mgmt",
          "Percent indexed", "TB misses"}) {
        EXPECT_NE(s.find(needle), std::string::npos) << needle;
    }
}

TEST(Report, MarkdownMode)
{
    const auto &m = measurement();
    upc::HistogramAnalyzer an(m.histogram, ucode::microcodeImage());
    upc::ReportOptions opt;
    opt.markdown = true;
    opt.title = "MD Report";
    std::string s = upc::writeReport(an, {}, opt);
    EXPECT_EQ(s.rfind("# MD Report", 0), 0u);
    EXPECT_NE(s.find("### Table 8"), std::string::npos);
    EXPECT_NE(s.find("|---|"), std::string::npos);
}

TEST(Report, NumbersAgreeWithAnalyzer)
{
    const auto &m = measurement();
    upc::HistogramAnalyzer an(m.histogram, ucode::microcodeImage());
    std::string s = upc::writeReport(an, {});
    char cpi[32];
    std::snprintf(cpi, sizeof(cpi), "%.3f cycles", an.cpi());
    EXPECT_NE(s.find(cpi), std::string::npos);
    char instr[64];
    std::snprintf(instr, sizeof(instr), "%llu instructions",
                  static_cast<unsigned long long>(an.instructions()));
    EXPECT_NE(s.find(instr), std::string::npos);
}

TEST(Report, EmptyMeasurementSafe)
{
    upc::Histogram h;
    upc::HistogramAnalyzer an(h, ucode::microcodeImage());
    EXPECT_EQ(upc::writeReport(an, {}), "(empty measurement)\n");
}

namespace
{

/**
 * The whitespace-separated cells of the first row labelled @p label
 * inside the table titled @p table ("" when there is none).
 */
std::vector<std::string>
rowCells(const std::string &report, const std::string &table,
         const std::string &label)
{
    size_t at = report.find(table);
    if (at == std::string::npos)
        return {};
    size_t end = report.find("\n\n", at);
    std::istringstream lines(report.substr(at, end - at));
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind(label + " ", 0) != 0)
            continue;
        std::istringstream cells(line.substr(label.size()));
        std::vector<std::string> out;
        for (std::string c; cells >> c;)
            out.push_back(c);
        return out;
    }
    return {};
}

} // namespace

TEST(Report, VsPaperPrintsThePaperColumn)
{
    const auto &m = measurement();
    upc::HistogramAnalyzer an(m.histogram, ucode::microcodeImage());
    upc::ReportHwInputs hw;
    hw.ibFills = m.hw.ibFills;
    hw.softIntRequests = m.osStats.softIntRequests();
    upc::ReportOptions opt;
    opt.vsPaper = true;
    std::string s = upc::writeReport(an, hw, opt);

    // The last cells of each row are the paper's.
    auto t8 = rowCells(s, "Table 8", "TOTAL");
    ASSERT_EQ(t8.size(), 8u) << s;
    EXPECT_EQ(t8.back(), "10.593");
    auto t5 = rowCells(s, "Table 5", "TOTAL");
    ASSERT_EQ(t5.size(), 4u) << s;
    EXPECT_EQ(t5[2], "0.783");
    EXPECT_EQ(t5[3], "0.409");
    auto mm = rowCells(s, "Table 5", "Mem Mgmt");
    ASSERT_EQ(mm.size(), 4u) << s;
    EXPECT_EQ(mm[2], "-") << "the paper folds Mem Mgmt into Other";
    auto t7 = rowCells(s, "Table 7", "Context switches");
    ASSERT_FALSE(t7.empty()) << s;
    EXPECT_EQ(t7.back(), "6418");
    auto tb = rowCells(s, "Implementation events",
                       "TB service cycles per miss");
    ASSERT_FALSE(tb.empty()) << s;
    EXPECT_EQ(tb.back(), "21.6");

    // The derived checks ride along under their tables.
    for (const char *needle :
         {"Conservation check: matrix total", "Read/write ratio",
          "Paper column totals", "Section 5: overlapping the decode",
          "Call/Ret reads+writes", "Device totals"})
        EXPECT_NE(s.find(needle), std::string::npos) << needle;

    // None of it appears in the default view, whose rows are the
    // vs-paper rows minus their paper cells.
    std::string plain = upc::writeReport(an, hw);
    EXPECT_EQ(plain.find("Paper"), std::string::npos);
    EXPECT_EQ(plain.find("Conservation check"), std::string::npos);
    auto plain8 = rowCells(plain, "Table 8", "TOTAL");
    t8.pop_back();
    EXPECT_EQ(plain8, t8);
}

TEST(Report, VsPaperMarkdownNotesAreBullets)
{
    const auto &m = measurement();
    upc::HistogramAnalyzer an(m.histogram, ucode::microcodeImage());
    upc::ReportOptions opt;
    opt.vsPaper = true;
    opt.markdown = true;
    std::string s = upc::writeReport(an, {}, opt);
    EXPECT_NE(s.find("| Paper total |"), std::string::npos);
    EXPECT_NE(s.find("\n- Conservation check: matrix total"),
              std::string::npos);
}
