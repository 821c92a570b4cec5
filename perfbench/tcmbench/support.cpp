#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "common/json.hpp"
#include "common/numfmt.hpp"

namespace perfbench {

// -- order statistics --------------------------------------------------------

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/** Nearest-rank percentile @p pct (0, 100] of @p values; 0 when empty. */
double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    const double rank = std::ceil(pct / 100.0 * n);
    const std::size_t idx =
        static_cast<std::size_t>(std::clamp(rank, 1.0, n));
    return values[idx - 1];
}

} // namespace

Tail
tailOf(const std::vector<double> &values)
{
    static constexpr double kLadder[] = {50.0, 75.0, 90.0, 95.0, 99.0, 99.9};
    Tail best;
    best.samples = values.size();
    for (double pct : kLadder) {
        const double v = percentile(values, pct);
        const std::size_t beyond = static_cast<std::size_t>(
            std::count_if(values.begin(), values.end(),
                          [v](double x) { return x > v; }));
        if (beyond < kTailBeyond)
            break;
        best.ok = true;
        best.pct = pct;
        best.value = v;
        best.beyond = beyond;
    }
    return best;
}

// -- output checks -----------------------------------------------------------

namespace {

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

} // namespace

std::string
outputMismatch(const JobOutput &want, const JobOutput &got)
{
    if (want.ipc.size() != got.ipc.size())
        return "IPC vector has " + std::to_string(got.ipc.size()) +
               " threads, expected " + std::to_string(want.ipc.size());
    for (std::size_t t = 0; t < want.ipc.size(); ++t)
        if (!sameBits(want.ipc[t], got.ipc[t]))
            return "thread " + std::to_string(t) + " IPC " +
                   tcm::formatDouble(got.ipc[t]) + " != " +
                   tcm::formatDouble(want.ipc[t]);
    const std::tuple<const char *, double, double> metrics[] = {
        {"ws", want.ws, got.ws},
        {"ms", want.ms, got.ms},
        {"hs", want.hs, got.hs}};
    for (const auto &[name, a, b] : metrics)
        if (!sameBits(a, b))
            return std::string(name) + " " + tcm::formatDouble(b) + " != " +
                   tcm::formatDouble(a);
    return "";
}

std::string
streamMismatch(const std::string &want, const std::string &got)
{
    return want == got ? ""
                       : "stream differs (" + std::to_string(got.size()) +
                             " bytes, expected " +
                             std::to_string(want.size()) + ")";
}

std::string
warmPassProblem(const tcm::sim::sweepd::RunOutcome &outcome,
                bool expectFinished)
{
    if (!outcome.ok)
        return "pass failed: " + outcome.error;
    if (outcome.finished != expectFinished)
        return expectFinished ? "pass stopped before its last job"
                              : "stopped pass ran to the end";
    if (outcome.cacheMisses > 0)
        return "warm pass simulated " + std::to_string(outcome.cacheMisses) +
               " alone-IPC denominators the store should have held";
    return "";
}

// -- spans -------------------------------------------------------------------

namespace {

/** Small dense id of the calling thread: the Chrome trace "tid". */
int
laneId()
{
    static std::atomic<int> next{0};
    thread_local const int lane = next.fetch_add(1);
    return lane;
}

} // namespace

void
SpanLog::record(const std::string &name, std::uint64_t job,
                Clock::time_point start, Clock::time_point end)
{
    if (!enabled_)
        return;
    Record r;
    r.name = name;
    r.job = job;
    r.lane = laneId();
    r.startUs =
        std::chrono::duration<double, std::micro>(start - origin_).count();
    r.durUs = std::chrono::duration<double, std::micro>(end - start).count();
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(std::move(r));
}

std::vector<SpanLog::Record>
SpanLog::records() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
}

void
SpanLog::writeChromeTrace(const std::string &path,
                          const std::string &process) const
{
    std::ostringstream out;
    out << "[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
           "\"args\":{\"name\":"
        << tcm::json::quote(process) << "}}";
    for (const Record &r : records()) {
        const std::size_t dot = r.name.find('.');
        out << ",\n{\"name\":" << tcm::json::quote(r.name)
            << ",\"cat\":" << tcm::json::quote(r.name.substr(0, dot))
            << ",\"ph\":\"X\",\"pid\":0,\"tid\":" << r.lane
            << ",\"ts\":" << tcm::formatDouble(r.startUs, 3)
            << ",\"dur\":" << tcm::formatDouble(r.durUs, 3)
            << ",\"args\":{\"job\":" << r.job << "}}";
    }
    out << "\n]\n";
    const std::string text = out.str();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path);
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (std::fclose(f) != 0 || !ok)
        throw std::runtime_error("short write to " + path);
}

Span::Span(SpanLog &log, std::string name, std::uint64_t job)
    : log_(log), name_(std::move(name)), job_(job), start_(Clock::now())
{
}

Span::~Span()
{
    if (log_.enabled())
        log_.record(name_, job_, start_, Clock::now());
}

// -- fleet manifest ----------------------------------------------------------

const std::vector<std::string> &
fleetSchedulers()
{
    static const std::vector<std::string> names = {
        "frfcfs", "tcm", "atlas", "bliss", "ght", "frfcfs-cp", "tournament"};
    return names;
}

const std::vector<std::string> &
fleetProtocols()
{
    static const std::vector<std::string> names = {"ddr2-800", "ddr3-1600",
                                                   "ddr4-2400"};
    return names;
}

const std::vector<double> &
fleetIntensities()
{
    static const std::vector<double> values = {0.25, 0.5, 1.0};
    return values;
}

std::string
fleetManifest(std::uint64_t seed)
{
    std::ostringstream out;
    out << "tcmsim-manifest v1\n"
        << "sample " << kFleetSample << "\n"
        << "workload-seed " << seed << "\n";
    std::uint64_t job = 0;
    for (const std::string &protocol : fleetProtocols())
        for (double intensity : fleetIntensities())
            for (const std::string &scheduler : fleetSchedulers()) {
                // A distinct mix and trace seed per job: the more mixes a
                // pass draws, the less one seed's draw moves its cost.
                out << "job " << scheduler << " " << protocol << " "
                    << tcm::formatDouble(intensity) << " " << job << " "
                    << seed * 1000 + job << "\n";
                ++job;
            }
    return out.str();
}

} // namespace perfbench
