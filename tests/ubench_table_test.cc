/**
 * @file
 * Pins the derived per-instruction latency/stall table
 * (tools/upctable) as a golden: the table is *measured*, not asserted
 * against closed forms, so this test is the regression tripwire that
 * makes any timing drift in the opcode set a deliberate, reviewed
 * change.
 *
 * Regenerate with:
 *     ubench_table_test --update-golden    (or UPC780_UPDATE_GOLDEN=1)
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "ubench/table.hh"

namespace
{

using namespace upc780;

bool g_update = false;

#ifndef UPC780_GOLDEN_DIR
#error "UPC780_GOLDEN_DIR must point at tests/golden"
#endif

std::string
goldenPath()
{
    return std::string(UPC780_GOLDEN_DIR) + "/upctable.json";
}

TEST(UbenchTable, MatchesPinnedGolden)
{
    const ubench::LatencyTable t = ubench::sweepLatencyTable();
    const std::string rendered = ubench::tableToJson(t);

    if (g_update) {
        std::ofstream out(goldenPath(), std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath();
        out << rendered;
        std::fprintf(stderr, "[golden] updated %s (%zu rows)\n",
                     goldenPath().c_str(), t.rows.size());
        return;
    }

    std::ifstream in(goldenPath(), std::ios::binary);
    ASSERT_TRUE(in.good()) << goldenPath()
                           << " is missing; run ubench_table_test "
                              "--update-golden and commit the result";
    std::ostringstream pinned;
    pinned << in.rdbuf();
    EXPECT_EQ(rendered, pinned.str())
        << "per-instruction latency table drifted from the pinned "
           "golden; if intentional, regenerate with --update-golden";
}

/** Structural sanity independent of the pinned values. */
TEST(UbenchTable, SweepIsSubstantialAndOrdered)
{
    const ubench::LatencyTable t = ubench::sweepLatencyTable();
    EXPECT_GE(t.rows.size(), 60u) << "opcode sweep shrank unexpectedly";
    EXPECT_GT(t.baselineCycles, 0u);
    for (size_t i = 1; i < t.rows.size(); ++i)
        EXPECT_LT(t.rows[i - 1].opcode, t.rows[i].opcode);
    for (const ubench::TableRow &r : t.rows) {
        EXPECT_GE(r.latency, 0) << r.mnemonic;
        EXPECT_EQ(r.cycles, r.uops + r.stalls)
            << r.mnemonic << ": stall-free conservation per iteration";
        if (r.cyclesNoFpa >= 0) {
            EXPECT_GE(r.cyclesNoFpa, int64_t(r.cycles))
                << r.mnemonic << ": losing the FPA can only cost cycles";
        }
    }
}

/**
 * Both renderers on a hand-built table: the text form upctable prints
 * by default (the golden pins only the JSON), and the skipped-opcode
 * entries the real sweep does not produce.
 */
TEST(UbenchTable, RenderersListRowsAndSkips)
{
    ubench::LatencyTable t;
    t.baselineCycles = 7;
    t.rows.push_back({0xC0, "ADDL2", "SIMPLE", 9, 8, 1, 2, -1});
    t.skipped.push_back({0xFD, "ESCF", "reserved opcode"});

    const std::string text = ubench::tableToText(t);
    EXPECT_NE(text.find("(baseline 7 cycles/iter)"), std::string::npos)
        << text;
    EXPECT_NE(text.find("0xC0   ADDL2    SIMPLE              9      8 "
                        "      1        2           -1\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("0xFD   ESCF     skipped: reserved opcode\n"),
              std::string::npos)
        << text;

    const std::string json = ubench::tableToJson(t);
    EXPECT_NE(json.find("\"mnemonic\": \"ADDL2\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("{\"opcode\": 253, \"mnemonic\": \"ESCF\", "
                        "\"reason\": \"reserved opcode\"}\n"),
              std::string::npos)
        << json;
}

} // namespace

int
main(int argc, char **argv)
{
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--update-golden"))
            g_update = true;
        else
            argv[kept++] = argv[i];
    }
    argc = kept;
    if (const char *e = std::getenv("UPC780_UPDATE_GOLDEN"))
        if (*e && std::strcmp(e, "0"))
            g_update = true;
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
