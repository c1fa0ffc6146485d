#ifndef BOLT_UTIL_TABLE_H
#define BOLT_UTIL_TABLE_H

#include <iosfwd>
#include <string>
#include <vector>

namespace bolt {
namespace util {

/**
 * Minimal column-aligned ASCII table used by every benchmark binary to
 * print the rows the paper's tables report.
 */
class AsciiTable
{
  public:
    /** Construct with a header row. */
    explicit AsciiTable(std::vector<std::string> header);

    /** Append a row; must match the header width. */
    void addRow(std::vector<std::string> row);

    /** Convenience: format cells with fixed precision. */
    static std::string num(double v, int precision = 1);
    static std::string percent(double fraction, int precision = 0);

    /** Render with column alignment and a separator under the header. */
    void print(std::ostream& os) const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Renders a probability/intensity grid as an ASCII heatmap (Fig. 2-style
 * output). Values are expected in [0, 1]; NaN renders as blank.
 */
class AsciiHeatmap
{
  public:
    AsciiHeatmap(std::string title, std::string x_label,
                 std::string y_label);

    /**
     * Print a grid where cell(bx, by) supplies the value for column bx,
     * row by. Rows are printed top-to-bottom as by = bins-1 .. 0 so the
     * y axis grows upward like the paper's plots.
     */
    template <typename CellFn>
    void
    print(std::ostream& os, size_t bins, CellFn cell) const
    {
        std::vector<std::vector<double>> grid(bins,
                                              std::vector<double>(bins));
        for (size_t by = 0; by < bins; ++by)
            for (size_t bx = 0; bx < bins; ++bx)
                grid[by][bx] = cell(bx, by);
        printGrid(os, grid);
    }

    /** Print from an explicit row-major grid (grid[y][x]). */
    void printGrid(std::ostream& os,
                   const std::vector<std::vector<double>>& grid) const;

  private:
    std::string title_, xLabel_, yLabel_;
};

/**
 * One series of an ASCII line/column chart: label plus (x, y) points.
 * Used to print figure series (accuracy vs parameter sweeps).
 */
struct Series
{
    std::string label;
    std::vector<double> xs;
    std::vector<double> ys;
};

/** Print one or more series as aligned columns, one row per x value. */
void printSeries(std::ostream& os, const std::string& title,
                 const std::string& x_label,
                 const std::vector<Series>& series, int precision = 1);

} // namespace util
} // namespace bolt

#endif // BOLT_UTIL_TABLE_H
