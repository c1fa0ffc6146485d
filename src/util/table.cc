#include "table.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace bolt {
namespace util {

AsciiTable::AsciiTable(std::vector<std::string> header)
    : header_(std::move(header))
{
    if (header_.empty())
        throw std::invalid_argument("AsciiTable: empty header");
}

void
AsciiTable::addRow(std::vector<std::string> row)
{
    if (row.size() != header_.size())
        throw std::invalid_argument("AsciiTable: row width mismatch");
    rows_.push_back(std::move(row));
}

std::string
AsciiTable::num(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

std::string
AsciiTable::percent(double fraction, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << fraction * 100.0
       << "%";
    return os.str();
}

void
AsciiTable::print(std::ostream& os) const
{
    std::vector<size_t> widths(header_.size());
    for (size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto& row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto print_row = [&](const std::vector<std::string>& row) {
        os << "| ";
        for (size_t c = 0; c < row.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c]))
               << row[c];
            os << (c + 1 == row.size() ? " |" : " | ");
        }
        os << "\n";
    };

    print_row(header_);
    os << "|";
    for (size_t c = 0; c < widths.size(); ++c) {
        os << std::string(widths[c] + 2, '-');
        os << (c + 1 == widths.size() ? "|" : "+");
    }
    os << "\n";
    for (const auto& row : rows_)
        print_row(row);
}

AsciiHeatmap::AsciiHeatmap(std::string title, std::string x_label,
                           std::string y_label)
    : title_(std::move(title)), xLabel_(std::move(x_label)),
      yLabel_(std::move(y_label))
{
}

void
AsciiHeatmap::printGrid(std::ostream& os,
                        const std::vector<std::vector<double>>& grid) const
{
    // Ramp from cold to hot, mirroring the paper's probability colormap.
    static const char ramp[] = " .:-=+*#%@";
    constexpr size_t levels = sizeof(ramp) - 2;

    os << "## " << title_ << "  (y: " << yLabel_ << ", x: " << xLabel_
       << ", scale ' '=0 .. '@'=1, blank=no data)\n";
    for (size_t r = grid.size(); r-- > 0;) {
        os << "  |";
        for (double v : grid[r]) {
            if (std::isnan(v)) {
                os << ' ';
            } else {
                auto lvl = static_cast<size_t>(
                    std::clamp(v, 0.0, 1.0) * static_cast<double>(levels));
                os << ramp[lvl];
            }
        }
        os << "|\n";
    }
    os << "  +" << std::string(grid.empty() ? 0 : grid[0].size(), '-')
       << "+\n";
}

void
printSeries(std::ostream& os, const std::string& title,
            const std::string& x_label, const std::vector<Series>& series,
            int precision)
{
    os << "## " << title << "\n";
    std::vector<std::string> header{x_label};
    for (const auto& s : series)
        header.push_back(s.label);
    AsciiTable table(header);

    size_t rows = 0;
    for (const auto& s : series)
        rows = std::max(rows, s.xs.size());
    for (size_t r = 0; r < rows; ++r) {
        std::vector<std::string> row;
        // X comes from the first series that has this row.
        std::string x = "-";
        for (const auto& s : series) {
            if (r < s.xs.size()) {
                x = AsciiTable::num(s.xs[r], precision);
                break;
            }
        }
        row.push_back(x);
        for (const auto& s : series) {
            row.push_back(r < s.ys.size()
                              ? AsciiTable::num(s.ys[r], precision)
                              : "-");
        }
        table.addRow(std::move(row));
    }
    table.print(os);
}

} // namespace util
} // namespace bolt
