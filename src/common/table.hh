/**
 * @file
 * Plain-text table formatter used by the report writer and the benches
 * to print aligned tables.
 */

#ifndef UPC780_COMMON_TABLE_HH
#define UPC780_COMMON_TABLE_HH

#include <string>
#include <vector>

namespace upc780
{

/** Column-aligned text table with a title and optional rules. */
class TextTable
{
  public:
    explicit TextTable(std::string title) : title_(std::move(title)) {}

    /** Set the header row. */
    void header(std::vector<std::string> cells);

    /** Append a data row. */
    void row(std::vector<std::string> cells);

    /** Append a horizontal rule. */
    void rule();

    /** Render to a string. */
    std::string str() const;

    /** Render and write to stdout. */
    void print() const;

    /** Format helper: fixed-point double. */
    static std::string num(double v, int prec = 3);

  private:
    struct Row
    {
        std::vector<std::string> cells;
        bool isRule = false;
    };

    std::string title_;
    std::vector<std::string> header_;
    std::vector<Row> rows_;
};

} // namespace upc780

#endif // UPC780_COMMON_TABLE_HH
