/**
 * @file
 * Reference values from Emer & Clark's Tables 1-9 (ISCA 1984): the
 * paper column of upc::writeReport's vs-paper view. Values the OCR of
 * the retrospective leaves ambiguous are marked with a trailing
 * comment; totals are as printed in the paper. Row arrays follow the
 * order of the enum named beside them, which is the paper's row order.
 */

#ifndef UPC780_UPC_PAPER_HH
#define UPC780_UPC_PAPER_HH

#include "ucode/controlstore.hh"

namespace upc780::upc::paper
{

/** A cell the paper does not give (printed as "-"). */
inline constexpr double NotGiven = -1;

// ----- Table 1: opcode group frequency (percent) ---------------------------
/** By arch::Group. */
inline constexpr double Table1[] = {
    83.60,  // Simple
    6.92,   // Field
    3.62,   // Float
    3.22,   // Call/Ret
    2.11,   // System
    0.43,   // Character
    0.03,   // Decimal
};

// ----- Table 2: PC-changing instructions ------------------------------------
struct Table2Row
{
    double pctOfAll;     //!< percent of all instructions
    double pctBranch;    //!< percent that actually branch
    double branchOfAll;  //!< actual branches as percent of all
};
/** By arch::PcClass, SimpleCond (index 0) through SystemBr. */
inline constexpr Table2Row Table2[] = {
    {19.3, 56, 10.9},  // Simple cond. plus BRB, BRW
    {4.1, 91, 3.7},    // Loop branches
    {2.0, 41, 0.8},    // Low-bit tests
    {4.5, 100, 4.5},   // Subroutine call and return
    {0.3, 100, 0.3},   // Unconditional (JMP)
    {0.9, 100, 0.9},   // Case branch (CASEx)
    {4.3, 44, 1.9},    // Bit branches
    {2.4, 100, 2.4},   // Procedure call and return
    {0.4, 100, 0.4},   // System branches
};
inline constexpr double Table2TotalPct = 38.5;
inline constexpr double Table2TotalBranchPct = 67;
inline constexpr double Table2TotalBranchOfAll = 25.7;

// ----- Table 3: specifiers per average instruction ----------------------------
inline constexpr double Table3First = 0.726;
inline constexpr double Table3Other = 0.758;
inline constexpr double Table3BranchDisp = 0.312;

// ----- Table 4: operand specifier distribution (percent) ----------------------
struct Table4Row
{
    double spec1;   //!< NotGiven: not separable in the paper
    double spec26;
    double total;
};
/** By arch::SpecClass, Register through AutoIncDeferred. */
inline constexpr Table4Row Table4[] = {
    {28.7, 52.6, 41.0},               // Register
    {21.1, 10.8, 15.8},               // Short literal
    {3.2, 1.7, 2.4},                  // Immediate
    {NotGiven, NotGiven, 25.0},       // Displacement
    {NotGiven, NotGiven, 8.0},        // Register deferred
    {NotGiven, NotGiven, 3.2},        // Autoincrement
    {NotGiven, NotGiven, 1.6},        // Autodecrement
    {NotGiven, NotGiven, 1.6},        // Disp. deferred
    {NotGiven, NotGiven, 0.6},        // Absolute
    {NotGiven, NotGiven, 0.2},        // Autoinc. deferred
};
inline constexpr double Table4IndexedSpec1 = 8.5;
inline constexpr double Table4IndexedSpec26 = 4.2;
inline constexpr double Table4IndexedTotal = 6.3;

// ----- Table 5: D-stream reads/writes per average instruction ------------------
struct Table5Row
{
    ucode::Row row;
    double reads;
    double writes;
};
/** Rows the paper gives; it folds the others into "Other". */
inline constexpr Table5Row Table5[] = {
    {ucode::Row::Spec1, 0.306, 0.029},
    {ucode::Row::Spec26, 0.148, 0.033},
    {ucode::Row::ExSimple, 0.049, 0.007},
    {ucode::Row::ExField, 0.029, 0.008},
    {ucode::Row::ExFloat, 0.000, 0.008},
    {ucode::Row::ExCallRet, 0.133, 0.130},
    {ucode::Row::ExSystem, 0.015, 0.014},
    {ucode::Row::ExCharacter, 0.039, 0.046},
    {ucode::Row::ExDecimal, 0.002, 0.001},
};
/** Decode, branch displacement, interrupts, memory management, abort. */
inline constexpr double Table5OtherReads = 0.062;
inline constexpr double Table5OtherWrites = 0.008;
inline constexpr double Table5TotalReads = 0.783;
inline constexpr double Table5TotalWrites = 0.409;

// ----- Table 6: estimated size of average instruction ---------------------------
inline constexpr double Table6SpecifierBytes = 2.49;   //!< per instruction
inline constexpr double Table6BranchDispSize = 1.15;   //!< bytes each
inline constexpr double Table6BranchDispBytes = 0.31;  //!< per instruction
inline constexpr double Table6Total = 3.8;

// ----- Table 7: interrupt and context-switch headway -----------------------------
inline constexpr double Table7SoftIntRequests = 2539;
inline constexpr double Table7Interrupts = 637;
inline constexpr double Table7ContextSwitches = 6418;

// ----- Table 8: average VAX instruction timing (cycles per instruction) ----------
// Columns: Compute, Read, R-Stall, Write, W-Stall, IB-Stall, Total.
struct Table8Row
{
    const char *name;
    double compute, read, rstall, write, wstall, ibstall, total;
};
/** By ucode::Row, Decode (index 0) through Abort. */
inline constexpr Table8Row Table8[] = {
    {"Decode", 1.000, 0, 0, 0, 0, 0.613, 1.613},
    {"SPEC1", 0.221, 0.306, 0.364, 0.116, 0.005, 0.161, 1.173},
    {"SPEC2-6", 0.895, 0.148, 0.161, 0.192, 0.102, 0.226, 1.724},
    {"B-DISP", 0.221, 0, 0, 0, 0, 0.005, 0.226},
    {"Simple", 0.870, 0.049, 0.017, 0.058, 0.027, 0, 0.977},
    {"Field", 0.482, 0.029, 0.033, 0.007, 0.002, 0, 0.600},
    {"Float", 0.292, 0.000, 0.000, 0.008, 0.001, 0, 0.302},
    {"Call/Ret", 0.937, 0.133, 0.074, 0.130, 0.134, 0, 1.458},
    {"System", 0.405, 0.015, 0.031, 0.046, 0.004, 0, 0.522},
    {"Character", 0.396, 0.039, 0.014, 0.028, 0.028, 0, 0.506},
    {"Decimal", 0.026, 0.002, 0.000, 0.001, 0.002, 0, 0.031},
    {"Int/Except", 0.055, 0.002, 0.004, 0.006, 0.004, 0, 0.071},
    {"Mem Mgmt", 0.555, 0.061, 0.201, 0.004, 0.003, 0, 0.824},
    {"Abort", 0.127, 0, 0, 0, 0, 0, 0.127},
};
// NOTE: SPEC1/SPEC2-6 row internals are partially garbled in the OCR;
// the column totals below are as printed and are the primary target.
inline constexpr double Table8Compute = 7.267;
inline constexpr double Table8Read = 0.783;
inline constexpr double Table8RStall = 0.964;
inline constexpr double Table8Write = 0.409;
inline constexpr double Table8WStall = 0.450;
inline constexpr double Table8IbStall = 0.720;
inline constexpr double Table8Total = 10.593;

// ----- Table 9: cycles per instruction within each group ---------------------------
/** Execute-phase cycles per group instruction, by arch::Group. */
inline constexpr double Table9Total[] = {
    1.17,    // Simple
    8.67,    // Field (OCR approximate)
    8.33,    // Float
    45.25,   // Call/Ret
    24.74,   // System
    117.04,  // Character
    100.77,  // Decimal
};

// ----- Section 4 implementation events ------------------------------------------------
inline constexpr double IbRefsPerInstr = 2.2;       // §4.1
inline constexpr double IbBytesPerRef = 1.7;        // §4.1
inline constexpr double CacheIMissPerInstr = 0.18;  // §4.2 (from [2])
inline constexpr double CacheDMissPerInstr = 0.10;
inline constexpr double TbMissPerInstr = 0.029;
inline constexpr double TbDMissPerInstr = 0.020;
inline constexpr double TbIMissPerInstr = 0.009;
inline constexpr double TbServiceCycles = 21.6;
inline constexpr double TbServiceStallCycles = 3.5;
inline constexpr double UnalignedPerInstr = 0.016;  // §3.3.1

} // namespace upc780::upc::paper

#endif // UPC780_UPC_PAPER_HH
