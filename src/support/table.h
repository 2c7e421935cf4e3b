/**
 * @file
 * Plain-text table formatting for sweep output.
 *
 * The registered sweeps print the same rows/series the paper's tables
 * and figures report; Table gives them a uniform, aligned rendering.
 */

#ifndef RTDC_SUPPORT_TABLE_H
#define RTDC_SUPPORT_TABLE_H

#include <string>
#include <vector>

namespace rtd {

/** Column-aligned text table with a header row. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append one row; must have as many cells as there are headers. */
    void addRow(std::vector<std::string> cells);

    /** Render with aligned columns, header underline, trailing newline. */
    std::string render() const;

    size_t rows() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** printf-style float with fixed decimals, e.g. fmtDouble(2.987, 2) -> "2.99". */
std::string fmtDouble(double value, int decimals);

/** Percentage with fixed decimals and trailing '%'. */
std::string fmtPercent(double value, int decimals);

/** Thousands-separated integer, e.g. 1083168 -> "1,083,168". */
std::string fmtCount(uint64_t value);

} // namespace rtd

#endif // RTDC_SUPPORT_TABLE_H
