#include "src/core/report.h"

#include <algorithm>
#include <cstdio>

#include "src/core/experiment.h"
#include "src/runner/sweep_result.h"
#include "src/sim/log.h"

namespace bauvm
{

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        panic("Table: row width %zu != header width %zu", cells.size(),
              headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::num(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
    return buf;
}

std::string
Table::toText() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }
    std::string out;
    auto append_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            out += row[c];
            out.append(widths[c] - row[c].size() + 2, ' ');
        }
        out += '\n';
    };
    append_row(headers_);
    std::size_t total = 0;
    for (auto w : widths)
        total += w + 2;
    out.append(total, '-');
    out += '\n';
    for (const auto &row : rows_)
        append_row(row);
    return out;
}

std::string
Table::toCsv() const
{
    std::string out;
    auto append_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            out += row[c];
            out += c + 1 == row.size() ? '\n' : ',';
        }
    };
    append_row(headers_);
    for (const auto &row : rows_)
        append_row(row);
    return out;
}

void
Table::print() const
{
    std::fputs(toText().c_str(), stdout);
}

void
Table::printCsv() const
{
    std::fputs(toCsv().c_str(), stdout);
}

void
Table::emit(bool csv) const
{
    if (csv)
        printCsv();
    else
        print();
}

void
printBanner(const std::string &title)
{
    std::printf("\n== %s ==\n", title.c_str());
}

std::optional<double>
SpeedupTable::average(Policy p) const
{
    const auto it = speedups.find(p);
    if (it == speedups.end() || it->second.empty())
        return std::nullopt;
    return amean(it->second);
}

SpeedupTable
buildSpeedupTable(const SweepResult &sweep,
                  const std::vector<std::string> &workloads,
                  const std::vector<Policy> &policies, SpeedupMeans means)
{
    std::vector<std::string> headers = {"workload"};
    for (Policy p : policies)
        headers.push_back(policyName(p));
    SpeedupTable out{Table(std::move(headers)), {}};
    for (const auto &w : workloads) {
        const CellOutcome *base = sweep.find(w, Policy::Baseline);
        if (!base || !base->ok) {
            warn("%s: skipping %s (baseline cell failed)",
                 sweep.bench.c_str(), w.c_str());
            continue;
        }
        const double base_cycles =
            static_cast<double>(base->result.cycles);
        std::vector<std::string> row = {w};
        for (Policy p : policies) {
            const CellOutcome *cell = sweep.find(w, p);
            if (!cell || !cell->ok) {
                row.push_back("FAIL");
                continue;
            }
            const double s =
                base_cycles / static_cast<double>(cell->result.cycles);
            out.speedups[p].push_back(s);
            row.push_back(Table::num(s, 2));
        }
        out.table.addRow(row);
    }

    auto addMeanRow = [&](const char *label,
                          double (*mean)(const std::vector<double> &)) {
        std::vector<std::string> row = {label};
        for (Policy p : policies) {
            const std::vector<double> &v = out.speedups[p];
            std::string cell = v.empty() ? "n/a" : Table::num(mean(v), 2);
            if (const std::size_t excluded = workloads.size() - v.size())
                cell += " (" + std::to_string(excluded) + " excl)";
            row.push_back(std::move(cell));
        }
        out.table.addRow(row);
    };
    // The paper reports arithmetic-average speedups (the BFS-DWC
    // outlier pulls its 2x headline up); fig11 prints both means.
    if (means != SpeedupMeans::Geomean)
        addMeanRow("AVERAGE", amean);
    if (means != SpeedupMeans::Average)
        addMeanRow("GEOMEAN", geomean);
    return out;
}

std::string
section52Summary(const SpeedupTable &fig11)
{
    const std::optional<double> toue = fig11.average(Policy::ToUe);
    auto ratioOver = [&](Policy p) -> std::optional<double> {
        const std::optional<double> other = fig11.average(p);
        if (!toue || !other)
            return std::nullopt;
        return *toue / *other;
    };
    std::string out = "\nsection 5.2 summary (paper in parentheses):\n";
    auto line = [&](const char *label, std::optional<double> v,
                    const char *paper) {
        char buf[128];
        const std::string value = v ? Table::num(*v, 2) + "x" : "n/a";
        std::snprintf(buf, sizeof buf, "  %-30s%s%s\n", label,
                      value.c_str(), paper);
        out += buf;
    };
    line("TO+UE vs BASELINE:", toue, " (2.00x)");
    line("TO+UE vs BASELINE+PCIeC:", ratioOver(Policy::BaselinePcieComp),
         " (1.81x)");
    line("TO+UE vs ETC:", ratioOver(Policy::Etc), " (1.79x)");
    line("TO alone:", fig11.average(Policy::To), " (1.22x)");
    line("UE alone:", fig11.average(Policy::Ue), "");
    return out;
}

} // namespace bauvm
