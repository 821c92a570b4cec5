/**
 * @file
 * The reproduction's tables and figures from one binary: runs each
 * named figure of the sim::paper registry (every one when no name is
 * given), prints its results document as a table followed by the
 * paper-vs-measured comparisons and the paper's reading, and writes the
 * document as JSON when asked.
 *
 *   paper                       every figure, printed only
 *   paper fig4 table6           two figures
 *   paper --json out.json fig4  one figure, its document to out.json
 *   TCMSIM_BENCH_JSON=DIR paper every figure, DIR/BENCH_<name>.json each
 *
 * Scale comes from TCMSIM_CYCLES / TCMSIM_WARMUP / TCMSIM_WORKLOADS,
 * workers from TCMSIM_JOBS, the sampling probe's windows from
 * TCMSIM_SAMPLE. Exit codes: 0 success; 1 a run or a write failed
 * (cycleskip's kernels diverging included); 2 bad usage or a malformed
 * TCMSIM_* setting.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "cli.hpp"
#include "prof/profiler.hpp"
#include "sim/claims.hpp"
#include "sim/paper_experiments.hpp"

namespace {

using namespace tcm;
namespace results = sim::results;

std::string
figureNames()
{
    std::string names;
    for (const sim::paper::Figure &f : sim::paper::figures())
        names += (names.empty() ? "" : ", ") + f.name;
    return names;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: paper [--json PATH] [NAME...]\n"
                 "  runs the named figures (all when none is named) and\n"
                 "  prints each; --json PATH writes the one named figure's\n"
                 "  document, TCMSIM_BENCH_JSON=DIR writes every figure's\n"
                 "  as DIR/BENCH_<NAME>.json\n"
                 "names: %s\n",
                 figureNames().c_str());
}

const cli::Tool kTool{"paper", "", usage};

/** @p v with about four significant digits; whole numbers print whole. */
std::string
number(double v)
{
    char buf[48];
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    } else {
        const double mag = std::fabs(v);
        int decimals = 4;
        if (mag >= 1.0 && std::isfinite(mag))
            decimals = std::max(0, 3 - static_cast<int>(std::log10(mag)));
        std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    }
    return buf;
}

std::string
percent(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%+.1f%%", v);
    return buf;
}

bool
sameMetricNames(const results::Row &a, const results::Row &b)
{
    return std::equal(a.metrics.begin(), a.metrics.end(), b.metrics.begin(),
                      b.metrics.end(), [](const auto &x, const auto &y) {
                          return x.first == y.first;
                      });
}

/** Rows [first, last) of @p doc, which share their metric names, as one
 *  table: a label column ("series" or "series@point") and one column
 *  per metric. */
void
printBlock(const results::ResultsDoc &doc, std::size_t first,
           std::size_t last)
{
    std::vector<std::string> labels;
    std::size_t labelWidth = 0;
    for (std::size_t r = first; r < last; ++r) {
        const results::Row &row = doc.rows[r];
        labels.push_back(row.point.empty() ? row.series
                                           : row.series + "@" + row.point);
        labelWidth = std::max(labelWidth, labels.back().size());
    }
    const auto &names = doc.rows[first].metrics;
    std::vector<std::vector<std::string>> cells(last - first);
    std::vector<std::size_t> widths;
    for (const auto &[name, value] : names)
        widths.push_back(name.size());
    for (std::size_t r = first; r < last; ++r) {
        for (std::size_t m = 0; m < names.size(); ++m) {
            cells[r - first].push_back(number(doc.rows[r].metrics[m].second));
            widths[m] = std::max(widths[m], cells[r - first].back().size());
        }
    }

    std::printf("%-*s", static_cast<int>(labelWidth), "");
    for (std::size_t m = 0; m < names.size(); ++m)
        std::printf("  %*s", static_cast<int>(widths[m]),
                    names[m].first.c_str());
    std::printf("\n");
    for (std::size_t r = 0; r < cells.size(); ++r) {
        std::printf("%-*s", static_cast<int>(labelWidth), labels[r].c_str());
        for (std::size_t m = 0; m < names.size(); ++m)
            std::printf("  %*s", static_cast<int>(widths[m]),
                        cells[r][m].c_str());
        std::printf("\n");
    }
}

/** The one table printer: @p doc under @p figure's title, then its
 *  comparisons and reading. */
void
print(const sim::paper::Figure &figure, const results::ResultsDoc &doc)
{
    const char *rule = "=============================================="
                       "================\n";
    std::printf("%s%s\n", rule, figure.title.c_str());
    if (doc.measure > 0)
        std::printf("scale: warmup=%llu measure=%llu cycles, %d "
                    "workloads/category\n",
                    static_cast<unsigned long long>(doc.warmup),
                    static_cast<unsigned long long>(doc.measure),
                    doc.workloadsPerCategory);
    else
        std::printf("scale: none (no simulation)\n");
    std::printf("%s", rule);

    // Consecutive rows with the same metric names share one table.
    for (std::size_t first = 0; first < doc.rows.size();) {
        std::size_t last = first + 1;
        while (last < doc.rows.size() &&
               sameMetricNames(doc.rows[first], doc.rows[last]))
            ++last;
        if (first > 0)
            std::printf("\n");
        printBlock(doc, first, last);
        first = last;
    }

    if (!figure.comparisons.empty()) {
        sim::claims::ResultSet set;
        set.add(doc);
        std::size_t width = 0;
        for (const sim::paper::Comparison &c : figure.comparisons)
            width = std::max(width, c.label.size());
        std::printf("\n");
        for (const sim::paper::Comparison &c : figure.comparisons) {
            const bool relative = !c.reference.empty();
            const double *subject = set.find(c.subject);
            const double *reference =
                relative ? set.find(c.reference) : nullptr;
            std::string measured = "missing";
            if (subject && (!relative || reference))
                measured = relative
                               ? percent(100.0 * (*subject / *reference - 1.0))
                               : number(*subject);
            std::string paper;
            if (c.paper)
                paper = "  (paper " +
                        (relative ? percent(*c.paper) : number(*c.paper)) +
                        ")";
            std::printf("%-*s  %8s%s\n", static_cast<int>(width),
                        c.label.c_str(), measured.c_str(), paper.c_str());
        }
    }
    std::printf("\n%s\n\n", figure.reading.c_str());
    std::fflush(stdout);
}

/** Where @p name's document goes: @p jsonPath, else
 *  $TCMSIM_BENCH_JSON/BENCH_<name>.json (the directory created on
 *  demand), else "" for none. */
std::string
outputPath(const std::string &name, const std::string &jsonPath)
{
    if (!jsonPath.empty())
        return jsonPath;
    const char *dir = std::getenv("TCMSIM_BENCH_JSON");
    if (!dir || !*dir)
        return "";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        std::fprintf(stderr, "paper: cannot create TCMSIM_BENCH_JSON "
                             "directory %s\n",
                     dir);
        std::exit(1);
    }
    return std::string(dir) + "/BENCH_" + name + ".json";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonPath;
    std::vector<const sim::paper::Figure *> selected;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            if (i + 1 >= argc)
                kTool.die("--json needs a value");
            jsonPath = argv[++i];
        } else if (arg.rfind("-", 0) == 0) {
            kTool.die("unknown option '" + arg + "'");
        } else {
            const auto &all = sim::paper::figures();
            auto it = std::find_if(all.begin(), all.end(),
                                   [&](const sim::paper::Figure &f) {
                                       return f.name == arg;
                                   });
            if (it == all.end())
                kTool.die("unknown figure '" + arg +
                          "'; valid names: " + figureNames());
            selected.push_back(&*it);
        }
    }
    if (selected.empty())
        for (const sim::paper::Figure &f : sim::paper::figures())
            selected.push_back(&f);
    if (!jsonPath.empty() && selected.size() != 1)
        kTool.die("--json takes exactly one figure (TCMSIM_BENCH_JSON=DIR "
                  "writes several)");

    const sim::ExperimentScale scale = sim::ExperimentScale::fromEnv();
    if (prof::ProfileConfig::fromEnv().enabled)
        std::fprintf(stderr, "paper: simulator self-profile on; profiles "
                             "go to each document's run block, no per-run "
                             "files\n");

    for (const sim::paper::Figure *figure : selected) {
        results::ResultsDoc doc;
        try {
            doc = figure->run(sim::SystemConfig{}, scale, /*jobs=*/0);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "paper: %s: %s\n", figure->name.c_str(),
                         e.what());
            return 1;
        }
        print(*figure, doc);
        const std::string path = outputPath(figure->name, jsonPath);
        if (path.empty())
            continue;
        try {
            doc.save(path);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "paper: %s\n", e.what());
            return 1;
        }
        std::fprintf(stderr, "results json: %s\n", path.c_str());
    }
    return 0;
}
