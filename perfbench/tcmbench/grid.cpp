/**
 * @file
 * The paper grids, `saturated` (every thread memory-intensive) and
 * `light` (none): the five paper schedulers on the default 24-core,
 * 4-channel DDR2-800 system over the full 50k + 300k-cycle horizon, each
 * job one sim::runWorkload call against a prewarmed AloneIpcCache.
 */

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "common/numfmt.hpp"
#include "common/thread_pool.hpp"
#include "workload/mixes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/** Mixes per run: enough that one seed's draw of benchmarks barely moves
 *  a run's medians. */
constexpr int kMixes = 24;
/** Cold prewarms in the set-up; setup_s is their median. */
constexpr int kSetupReps = 25;

struct Job
{
    std::size_t cell = 0;
    double seconds = 0.0;
    JobOutput out;
    std::string error; //!< what the job threw, if it did
};

struct Phase
{
    std::vector<Job> jobs;
    double wall = 0.0;
};

/**
 * Drain the cyclic job list (cell i % cells) on every pool worker until
 * @p seconds have passed and at least @p minJobs jobs have started; the
 * jobs in flight at the deadline finish and count.
 */
template <class RunCell>
Phase
drain(tcm::ThreadPool &pool, std::size_t cells, double seconds,
      std::size_t minJobs, RunCell runCell)
{
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::atomic<std::size_t> next{0};
    std::vector<std::vector<Job>> perLane(
        static_cast<std::size_t>(pool.jobs()));
    pool.parallelFor(perLane.size(), [&](std::size_t lane) {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= minJobs && Clock::now() >= deadline)
                return;
            Job job;
            job.cell = i % cells;
            const Clock::time_point t0 = Clock::now();
            try {
                job.out = runCell(job.cell, i);
            } catch (const std::exception &e) {
                job.error = e.what();
            }
            job.seconds = secondsSince(t0);
            perLane[lane].push_back(std::move(job));
        }
    });
    Phase phase;
    phase.wall = secondsSince(start);
    for (auto &lane : perLane)
        for (Job &job : lane)
            phase.jobs.push_back(std::move(job));
    return phase;
}

JobOutput
outputOf(const tcm::sim::RunResult &r)
{
    return {r.ipcShared, r.metrics.weightedSpeedup, r.metrics.maxSlowdown,
            r.metrics.harmonicSpeedup};
}

} // namespace

const std::vector<std::string> &
gridSchedulers()
{
    static const std::vector<std::string> names = {"frfcfs", "stfm", "parbs",
                                                    "atlas", "tcm"};
    return names;
}

Result
runGrid(const Options &o, double fracIntensive)
{
    Result res;
    const tcm::sim::SystemConfig config; // the paper system, observer-free
    const tcm::sim::ExperimentScale scale; // 50k warmup + 300k measured
    const auto mixes = tcm::workload::workloadSet(kMixes, config.numCores,
                                                  fracIntensive, o.seed);
    std::vector<tcm::sched::SchedulerSpec> specs;
    for (const std::string &name : gridSchedulers())
        specs.push_back(tcm::sched::specByName(name).spec);
    const std::size_t cells = mixes.size() * specs.size();
    auto mixOf = [&](std::size_t cell) { return cell / specs.size(); };
    auto specOf = [&](std::size_t cell) { return cell % specs.size(); };
    auto seedOf = [&](std::size_t cell) { return o.seed + mixOf(cell); };

    res.scale = {{"cores", std::to_string(config.numCores)},
                 {"channels", std::to_string(config.numChannels)},
                 {"protocol", config.protocol},
                 {"frac_intensive", tcm::formatDouble(fracIntensive)},
                 {"warmup_cycles", std::to_string(scale.warmup)},
                 {"measure_cycles", std::to_string(scale.measure)},
                 {"mixes", std::to_string(kMixes)},
                 {"schedulers", std::to_string(specs.size())},
                 {"setup_reps", std::to_string(kSetupReps)}};
    res.spans = std::make_unique<SpanLog>(o.trace);

    tcm::ThreadPool pool(o.workers);

    // Set-up: cold prewarms of the distinct profiles; the last cache
    // serves the measured phase.
    std::vector<double> setup;
    std::unique_ptr<tcm::sim::AloneIpcCache> cache;
    for (int k = 0; k < kSetupReps; ++k) {
        cache = std::make_unique<tcm::sim::AloneIpcCache>(
            config, scale.warmup, scale.measure);
        Span span(*res.spans, "sim.alone_prewarm", 0);
        const Clock::time_point t0 = Clock::now();
        cache->prewarm(mixes, pool);
        setup.push_back(secondsSince(t0));
    }
    const std::size_t distinctProfiles = cache->size();

    auto runCell = [&](std::size_t cell, std::size_t) {
        return outputOf(tcm::sim::runWorkload(config, mixes[mixOf(cell)],
                                              specs[specOf(cell)], scale,
                                              *cache, seedOf(cell)));
    };

    // Measured phase. A traced run halves it: the untraced half is the
    // reference the traced half must match and the base of the tracing
    // overhead.
    const double measureSeconds = o.trace ? o.seconds / 2 : o.seconds;
    const Phase plain = drain(pool, cells, measureSeconds, 2 * cells, runCell);

    // Every repetition of a cell must reproduce the cell's first recorded
    // run, bit for bit.
    std::map<std::size_t, JobOutput> reference;
    std::vector<double> jobSeconds;
    std::map<std::string, std::vector<double>> bySched;
    for (const Job &job : plain.jobs) {
        ++res.attempted;
        jobSeconds.push_back(job.seconds);
        bySched[gridSchedulers()[specOf(job.cell)]].push_back(job.seconds);
        if (!job.error.empty()) {
            res.fail("cell " + std::to_string(job.cell) + " threw: " +
                     job.error);
            continue;
        }
        auto [it, first] = reference.emplace(job.cell, job.out);
        if (first)
            continue;
        const std::string diff = outputMismatch(it->second, job.out);
        if (!diff.empty())
            res.fail("cell " + std::to_string(job.cell) +
                     " repetition differs: " + diff);
    }

    // Outside the timed phase: one job per scheduler on the per-cycle
    // oracle with the protocol checker attached.
    {
        tcm::sim::SystemConfig oracle = config;
        oracle.cycleSkip = false;
        oracle.protocolCheck = true;
        std::vector<tcm::sim::RunResult> runs(specs.size());
        std::vector<std::string> errors(specs.size());
        pool.parallelFor(specs.size(), [&](std::size_t s) {
            try {
                runs[s] = tcm::sim::runWorkload(oracle, mixes[0], specs[s],
                                                scale, *cache, seedOf(s));
            } catch (const std::exception &e) {
                errors[s] = e.what();
            }
        });
        for (std::size_t s = 0; s < specs.size(); ++s) {
            ++res.attempted;
            const std::string &name = gridSchedulers()[s];
            const auto ref = reference.find(s); // cell s = (mix 0, sched s)
            std::string why = errors[s];
            if (why.empty() && ref == reference.end())
                why = "no timed run to compare against";
            if (why.empty())
                why = outputMismatch(ref->second, outputOf(runs[s]));
            if (why.empty() && runs[s].protocolViolations > 0)
                why = std::to_string(runs[s].protocolViolations) +
                      " protocol violations:\n" + runs[s].protocolReport;
            if (!why.empty())
                res.fail(name + " differs from the per-cycle oracle: " + why);
        }
    }

    const double jobsPerS =
        static_cast<double>(plain.jobs.size()) / plain.wall;
    const Tail tail = tailOf(jobSeconds);
    res.endToEnd = {{"jobs_per_s", jobsPerS, "1/s"},
                    {"job_s_p50", median(jobSeconds), "s"},
                    {"job_s_tail", tail.value, "s"},
                    {"setup_s", median(setup), "s"}};
    res.notes.push_back("job_s_tail is p" + tcm::formatDouble(tail.pct) +
                        " of " + std::to_string(tail.samples) + " jobs (" +
                        std::to_string(tail.beyond) + " beyond it)");
    if (!tail.ok) // drain's minimum of two passes rules this out
        throw std::logic_error("too few jobs for a tail");
    if (!o.trace)
        return res;

    // Traced half: the same cells through tracedJob, each compared with
    // its untraced output bit for bit.
    std::vector<LayerSample> samples;
    std::mutex samplesMutex; // guards samples
    const Phase traced = drain(
        pool, cells, o.seconds / 2, cells,
        [&](std::size_t cell, std::size_t i) {
            LayerSample sample;
            JobOutput out = tracedJob(config, mixes[mixOf(cell)],
                                      specs[specOf(cell)], scale, *cache,
                                      seedOf(cell), *res.spans, i + 1, true,
                                      sample);
            std::lock_guard<std::mutex> lock(samplesMutex);
            samples.push_back(sample);
            return out;
        });
    double busy = 0.0;
    for (const Job &job : traced.jobs) {
        ++res.attempted;
        busy += job.seconds;
        const auto ref = reference.find(job.cell);
        std::string why = job.error;
        if (why.empty() && ref != reference.end())
            why = outputMismatch(ref->second, job.out);
        if (!why.empty())
            res.fail("traced cell " + std::to_string(job.cell) +
                     " differs from its untraced run: " + why);
    }

    addLayerMetrics(res, samples, samples);
    auto add = [&](const std::string &name, double v, const std::string &u) {
        res.perLayer.push_back({name, v, u});
    };
    add("sim.alone_prewarm_s", median(setup), "s");
    add("sim.alone_distinct_profiles", static_cast<double>(distinctProfiles),
        "count");
    add("sim.alone_hit_ratio",
        static_cast<double>(cache->hits()) /
            static_cast<double>(std::max<std::uint64_t>(cache->lookups(), 1)),
        "ratio");
    for (const auto &[name, secs] : bySched)
        add("sched." + name + ".job_s_p50", median(secs), "s");
    add("common.pool_busy_share", busy / (o.workers * traced.wall), "ratio");
    add("bench.trace_overhead",
        jobsPerS / (static_cast<double>(traced.jobs.size()) / traced.wall),
        "ratio");
    res.notes.push_back("untraced half: " + std::to_string(plain.jobs.size()) +
                        " jobs, " + tcm::formatDouble(jobsPerS, 3) +
                        " jobs/s; traced half: " +
                        std::to_string(traced.jobs.size()) + " jobs");
    return res;
}

} // namespace perfbench
