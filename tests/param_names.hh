/**
 * @file
 * gtest prints every value parameter into the test's ctest name. For a
 * struct without a printer that is a hex dump of its bytes, heap
 * pointers included, so the name changed with the checkout path and
 * the binary's allocation history. These printers use the name field.
 */

#ifndef UPC780_TESTS_PARAM_NAMES_HH
#define UPC780_TESTS_PARAM_NAMES_HH

#include <ostream>

#include "ubench/ubench.hh"
#include "workload/profile.hh"

namespace upc780::ubench
{

inline void
PrintTo(const Kernel &k, std::ostream *os)
{
    *os << k.name;
}

} // namespace upc780::ubench

namespace upc780::wkl
{

inline void
PrintTo(const WorkloadProfile &p, std::ostream *os)
{
    *os << p.name;
}

} // namespace upc780::wkl

#endif // UPC780_TESTS_PARAM_NAMES_HH
