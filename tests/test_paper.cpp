/**
 * @file
 * The `paper` binary end to end: run with no figure name at a tiny
 * scale, it must write one results document per registered figure that
 * parses back under that figure's name. cycleskip fails the run (exit
 * 1) when its two kernels' IPCs differ, so the run also checks their
 * bit-identity.
 */

#include <cstdlib>
#include <filesystem>
#include <string>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "scratch.hpp"
#include "sim/paper_experiments.hpp"
#include "sim/results.hpp"

using namespace tcm;

TEST(Paper, EveryFigureWritesItsDocument)
{
    namespace fs = std::filesystem;
    const fs::path dir = test::scratchPath("paper");
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string cmd =
        "TCMSIM_CYCLES=20000 TCMSIM_WARMUP=2000 TCMSIM_WORKLOADS=1 "
        "TCMSIM_BENCH_JSON='" + (dir / "json").string() + "' '" +
        TCMSIM_PAPER_BIN + "' > '" + (dir / "stdout.txt").string() + "'";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << cmd;

    const auto &figures = sim::paper::figures();
    EXPECT_EQ(figures.size(), 17u);
    for (const sim::paper::Figure &figure : figures) {
        const sim::results::ResultsDoc doc = sim::results::ResultsDoc::load(
            (dir / "json" / ("BENCH_" + figure.name + ".json")).string());
        EXPECT_EQ(doc.bench, figure.name);
        EXPECT_FALSE(doc.rows.empty()) << figure.name;
    }
    EXPECT_EQ(std::distance(fs::directory_iterator(dir / "json"),
                            fs::directory_iterator{}),
              static_cast<std::ptrdiff_t>(figures.size()));
    fs::remove_all(dir);
}
