/**
 * @file
 * Table/CSV output helpers used by the bench binaries so every figure
 * prints in the same format, plus the fig11-style speedup-over-BASELINE
 * table every matrix bench (and its tests) renders from a SweepResult.
 */

#ifndef BAUVM_CORE_REPORT_H_
#define BAUVM_CORE_REPORT_H_

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/core/presets.h"

namespace bauvm
{

/** A simple column-aligned table with an optional CSV rendering. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /** Formats a double with @p precision decimals. */
    static std::string num(double v, int precision = 3);

    /**
     * Renders aligned columns as a string. Pure function of the rows,
     * so tests can compare parallel vs. serial sweeps byte-for-byte.
     */
    std::string toText() const;

    /** Renders CSV as a string (same determinism note as toText). */
    std::string toCsv() const;

    /** Prints aligned columns to stdout. */
    void print() const;

    /** Prints CSV to stdout. */
    void printCsv() const;

    /** print() or printCsv() depending on @p csv. */
    void emit(bool csv) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Prints a figure banner ("== Figure 11: ... =="). */
void printBanner(const std::string &title);

struct SweepResult;

/** Mean rows a speedup table carries under its per-workload rows. */
enum class SpeedupMeans { Average, Geomean, Both };

/**
 * Speedup over BASELINE per (workload, policy) cell of a sweep, as
 * fig11 prints it: one row per workload whose BASELINE cell succeeded,
 * one column per policy, FAIL for a failed cell.
 */
struct SpeedupTable {
    Table table;
    /** Successful speedups per policy, in workload order. */
    std::map<Policy, std::vector<double>> speedups;

    /** Arithmetic mean of @p p's successful speedups; nullopt if none. */
    std::optional<double> average(Policy p) const;
};

/**
 * Builds the speedup table of @p sweep over @p workloads x @p policies
 * and appends the @p means rows. A workload whose BASELINE cell failed
 * is skipped with a warning. Every mean covers only the successful
 * cells of its column; a column that had to exclude cells (failed, or
 * in a skipped row) shows the count, e.g. "1.41 (2 excl)", and a column
 * with no successful cell shows "n/a (11 excl)" instead of a number.
 * With no failed cells the output is exactly the historical fig11 one.
 */
SpeedupTable buildSpeedupTable(const SweepResult &sweep,
                               const std::vector<std::string> &workloads,
                               const std::vector<Policy> &policies,
                               SpeedupMeans means);

/**
 * The paper's section 5.2 headline ratios derived from a fig11 table
 * (paper values in parentheses). A line whose policies have no
 * successful cell prints "n/a", never a 0.00x ratio.
 */
std::string section52Summary(const SpeedupTable &fig11);

} // namespace bauvm

#endif // BAUVM_CORE_REPORT_H_
