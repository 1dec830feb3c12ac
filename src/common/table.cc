#include "common/table.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace upc780
{

void
TextTable::header(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
TextTable::row(std::vector<std::string> cells)
{
    rows_.push_back({std::move(cells), false});
}

void
TextTable::rule()
{
    rows_.push_back({{}, true});
}

std::string
TextTable::num(double v, int prec)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

std::string
TextTable::str() const
{
    // Compute column widths over header and all rows.
    std::vector<size_t> widths;
    auto grow = [&](const std::vector<std::string> &cells) {
        if (cells.size() > widths.size())
            widths.resize(cells.size(), 0);
        for (size_t i = 0; i < cells.size(); ++i)
            widths[i] = std::max(widths[i], cells[i].size());
    };
    grow(header_);
    for (const auto &r : rows_)
        if (!r.isRule)
            grow(r.cells);

    size_t total = 0;
    for (size_t w : widths)
        total += w + 2;
    if (total < title_.size())
        total = title_.size();

    std::ostringstream os;
    os << title_ << "\n" << std::string(total, '=') << "\n";

    static const std::string empty;
    auto emit = [&](const std::vector<std::string> &cells) {
        for (size_t i = 0; i < widths.size(); ++i) {
            const std::string &c = i < cells.size() ? cells[i] : empty;
            // Left-align the first column, right-align the rest.
            if (i == 0) {
                os << c << std::string(widths[i] - c.size(), ' ');
            } else {
                os << std::string(widths[i] - c.size(), ' ') << c;
            }
            if (i + 1 < widths.size())
                os << "  ";
        }
        os << "\n";
    };

    if (!header_.empty()) {
        emit(header_);
        os << std::string(total, '-') << "\n";
    }
    for (const auto &r : rows_) {
        if (r.isRule)
            os << std::string(total, '-') << "\n";
        else
            emit(r.cells);
    }
    return os.str();
}

void
TextTable::print() const
{
    std::fputs(str().c_str(), stdout);
    std::fputc('\n', stdout);
}

} // namespace upc780
