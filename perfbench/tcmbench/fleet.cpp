/**
 * @file
 * The `fleet` workload: one generated sweepd manifest (zoo and paper
 * schedulers × DDR2/3/4 × three intensities, interval-sampled) run
 * through sweepd::Server::runManifest. Set-up is a cold-store pass on an
 * empty state directory; the measured phase is warm-store passes, each
 * to a fresh output path, the first of them stopped halfway and resumed.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/numfmt.hpp"
#include "common/thread_pool.hpp"
#include "sim/results.hpp"
#include "workload/mixes.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;

namespace perfbench {

namespace {

/** Cold-store passes in the set-up; setup_s is their median. */
constexpr int kColdPasses = 5;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out.flush())
        throw std::runtime_error("cannot write " + path);
}

/** One runManifest call, timed, with its batches timed from the log. */
struct Pass
{
    tcm::sim::sweepd::RunOutcome outcome;
    double wall = 0.0;
    std::vector<double> batchS;      //!< wall seconds of each batch
    std::vector<double> batchJobS;   //!< worker-seconds per job, per batch
};

/** The sweepd mix of a manifest job: the positional contract documented
 *  on sweepd::Manifest. */
std::vector<tcm::workload::ThreadProfile>
mixForJob(const tcm::sim::sweepd::Manifest &m,
          const tcm::sim::sweepd::JobSpec &job)
{
    const std::uint64_t base =
        m.workloadSeed + static_cast<std::uint64_t>(job.intensity * 1000);
    return tcm::workload::randomMix(
        m.cores, job.intensity,
        base + 1000003ULL * static_cast<std::uint64_t>(job.mixIndex + 1));
}

} // namespace

Result
runFleet(const Options &o)
{
    using namespace tcm::sim;
    Result res;
    res.spans = std::make_unique<SpanLog>(o.trace);

    const std::string base =
        o.outDir + "/fleet-seed" + std::to_string(o.seed);
    fs::remove_all(base);
    fs::create_directories(base);
    const std::string manifestPath = base + "/fleet.manifest";
    const std::string manifestText = fleetManifest(o.seed);
    writeFile(manifestPath, manifestText);
    sweepd::Manifest manifest;
    std::string parseError;
    if (!sweepd::Manifest::parse(manifestText, &manifest, &parseError))
        throw std::runtime_error("generated manifest rejected: " + parseError);
    const std::uint64_t total = manifest.jobs.size();
    const ExperimentScale scale = manifest.scale();

    res.scale = {{"cores", std::to_string(manifest.cores)},
                 {"channels", std::to_string(manifest.channels)},
                 {"jobs_per_pass", std::to_string(total)},
                 {"sample", scale.sampling.describe()},
                 {"full_horizon_cycles", std::to_string(scale.measure)},
                 {"cold_passes", std::to_string(kColdPasses)}};

    auto runPass = [&](const std::string &state, const std::string &out,
                       std::uint64_t stopAfter, std::uint64_t startEmitted,
                       const std::string &name) {
        Pass pass;
        Span span(*res.spans, name, 0);
        Clock::time_point batchStart = Clock::now();
        std::uint64_t emitted = startEmitted;
        sweepd::Server::Options so;
        so.stateDir = state;
        so.jobs = o.workers;
        so.stopAfter = stopAfter;
        // Called on this thread. "sweepd: N/M jobs emitted" closes the
        // batch that started at the previous message; every other message
        // (alone-store loads, resume) restarts the clock, so a pass's
        // start-up stays out of its first batch.
        so.log = [&](const std::string &msg) {
            const Clock::time_point end = Clock::now();
            const std::string tail = " jobs emitted";
            if (msg.size() < tail.size() ||
                msg.compare(msg.size() - tail.size(), tail.size(), tail) != 0) {
                batchStart = end;
                return;
            }
            const std::size_t colon = msg.find(": ");
            const std::uint64_t now =
                std::strtoull(msg.c_str() + colon + 2, nullptr, 10);
            const double secs =
                std::chrono::duration<double>(end - batchStart).count();
            if (now > emitted) {
                pass.batchS.push_back(secs);
                pass.batchJobS.push_back(secs * o.workers /
                                         static_cast<double>(now - emitted));
            }
            res.spans->record("sweepd.batch", 0, batchStart, end);
            emitted = now;
            batchStart = end;
        };
        sweepd::Server server(so);
        const Clock::time_point t0 = Clock::now();
        pass.outcome = server.runManifest(manifestPath, out);
        pass.wall = secondsSince(t0);
        return pass;
    };
    // A pass either passes every check or fails with all its jobs.
    auto judge = [&](std::uint64_t jobs, const std::vector<std::string> &why) {
        res.attempted += jobs;
        for (const std::string &w : why)
            if (!w.empty()) {
                res.failed += jobs - 1;
                res.fail(w);
                return;
            }
    };

    // Set-up: cold-store passes, each on an empty state directory. The
    // first pass's stream is the reference every later pass must match.
    std::vector<double> setup;
    std::string reference;
    std::string warmState;
    for (int k = 0; k < kColdPasses; ++k) {
        warmState = base + "/cold" + std::to_string(k);
        const std::string out = warmState + "/stream.jsonl";
        const Pass pass = runPass(warmState, out, 0, 0, "sweepd.cold_pass");
        setup.push_back(pass.wall);
        std::string problem = pass.outcome.ok && pass.outcome.finished
                                  ? ""
                                  : "cold pass failed: " + pass.outcome.error;
        if (problem.empty()) {
            const std::string stream = readFile(out);
            if (k == 0)
                reference = stream;
            const std::string diff = streamMismatch(reference, stream);
            if (!diff.empty())
                problem = "cold pass " + std::to_string(k) + " stream: " + diff;
        }
        judge(total, {problem});
    }

    // One measured phase of warm passes. A non-empty @p profileRoot turns
    // TCMSIM_PROFILE on for each pass and collects the per-job profiles.
    struct Phase
    {
        std::uint64_t emitted = 0;
        double wall = 0.0;
        std::vector<double> warmWalls, batchS, batchJobS;
        double resumeWall = 0.0;
        double passWall = 0.0; //!< summed runManifest walls
        std::uint64_t hits = 0, misses = 0;
    };
    std::vector<LayerSample> profiled;
    int passNo = 0;
    auto measure = [&](double seconds, bool withStop,
                       const std::string &profileRoot) {
        Phase ph;
        const Clock::time_point start = Clock::now();
        auto account = [&](const Pass &pass) {
            ph.emitted += pass.outcome.emittedThisSession;
            ph.passWall += pass.wall;
            ph.hits += pass.outcome.cacheHits;
            ph.misses += pass.outcome.cacheMisses;
            ph.batchS.insert(ph.batchS.end(), pass.batchS.begin(),
                             pass.batchS.end());
            ph.batchJobS.insert(ph.batchJobS.end(), pass.batchJobS.begin(),
                                pass.batchJobS.end());
        };
        do {
            const std::string out =
                base + "/warm-" + std::to_string(passNo++) + ".jsonl";
            std::string profDir;
            if (!profileRoot.empty()) {
                profDir = profileRoot + "-" + std::to_string(passNo);
                fs::create_directories(profDir);
                // Read by runWorkload on the pass's workers, which do not
                // exist outside runManifest, so no thread reads it now.
                ::setenv("TCMSIM_PROFILE", profDir.c_str(), 1);
            }
            std::vector<std::string> problems;
            if (withStop) {
                // Stopped halfway, as a killed daemon would be, then resumed.
                withStop = false;
                const Pass first = runPass(warmState, out, total / 2, 0,
                                           "sweepd.stopped_pass");
                const Pass second = runPass(warmState, out, 0, total / 2,
                                            "sweepd.resume_pass");
                account(first);
                account(second);
                ph.resumeWall = second.wall;
                problems = {warmPassProblem(first.outcome, false),
                            warmPassProblem(second.outcome, true),
                            second.outcome.resumed
                                ? ""
                                : "second half did not resume"};
            } else {
                const Pass pass =
                    runPass(warmState, out, 0, 0, "sweepd.warm_pass");
                account(pass);
                ph.warmWalls.push_back(pass.wall);
                problems = {warmPassProblem(pass.outcome, true)};
            }
            ::unsetenv("TCMSIM_PROFILE");
            const std::string diff =
                fs::exists(out) ? streamMismatch(reference, readFile(out))
                                : "no stream written";
            problems.push_back(diff.empty() ? "" : "warm pass stream: " + diff);
            for (const char *suffix : {"", ".ckpt", ".summary.json"})
                fs::remove(out + suffix);
            if (!profDir.empty()) {
                std::size_t files = 0;
                for (const auto &entry : fs::directory_iterator(profDir)) {
                    LayerSample s;
                    fromProfileJson(readFile(entry.path().string()), s);
                    s.cycles = static_cast<std::uint64_t>(
                        scale.effectiveWarmup() + scale.effectiveMeasure());
                    profiled.push_back(s);
                    ++files;
                }
                if (files != total)
                    problems.push_back("TCMSIM_PROFILE wrote " +
                                       std::to_string(files) +
                                       " profiles for " +
                                       std::to_string(total) + " jobs");
                fs::remove_all(profDir);
            }
            judge(total, problems);
        } while (Clock::now() - start <
                     std::chrono::duration<double>(seconds) ||
                 ph.batchJobS.size() < 2 * kTailBeyond);
        ph.wall = secondsSince(start);
        return ph;
    };

    const Phase plain =
        measure(o.trace ? o.seconds / 2 : o.seconds, true, "");
    const double jobsPerS = static_cast<double>(plain.emitted) / plain.wall;
    const Tail tail = tailOf(plain.batchJobS);
    res.endToEnd = {{"jobs_per_s", jobsPerS, "1/s"},
                    {"job_s_p50", median(plain.batchJobS), "s"},
                    {"job_s_tail", tail.value, "s"},
                    {"setup_s", median(setup), "s"}};
    res.notes.push_back(
        "job_s is a batch's worker-seconds per job; job_s_tail is p" +
        tcm::formatDouble(tail.pct) + " of " + std::to_string(tail.samples) +
        " batches (" + std::to_string(tail.beyond) + " beyond it)");
    if (!tail.ok) // the measured phase's batch minimum rules this out
        throw std::logic_error("too few batches for a tail");
    if (!o.trace)
        return res;

    const Phase traced = measure(o.seconds / 2, false, base + "/profiles");

    // Replay one pass of the manifest through the Simulator calls, for
    // the spans and getter counts sweepd does not expose; each job must
    // reproduce its stream record's ws/ms/hs bit for bit.
    std::vector<std::string> records;
    {
        std::istringstream in(reference);
        for (std::string line; std::getline(in, line);)
            records.push_back(line);
    }
    tcm::ThreadPool pool(o.workers);
    std::map<std::string, SystemConfig> configs;
    std::map<std::string, std::unique_ptr<AloneIpcCache>> caches;
    double prewarmS = 0.0;
    std::size_t distinct = 0;
    for (const std::string &protocol : fleetProtocols()) {
        SystemConfig &c = configs[protocol];
        c.numCores = manifest.cores;
        c.numChannels = manifest.channels;
        c.selectProtocol(protocol);
        auto &cache = caches[protocol] = std::make_unique<AloneIpcCache>(
            c, scale.effectiveWarmup(), scale.effectiveMeasure());
        std::vector<std::vector<tcm::workload::ThreadProfile>> mixes;
        for (const sweepd::JobSpec &job : manifest.jobs)
            if (job.protocol == protocol)
                mixes.push_back(mixForJob(manifest, job));
        Span span(*res.spans, "sim.alone_prewarm", 0);
        const Clock::time_point t0 = Clock::now();
        cache->prewarm(mixes, pool);
        prewarmS += secondsSince(t0);
        distinct += cache->size();
    }
    std::vector<LayerSample> stepped(total);
    std::vector<std::string> errors(total);
    pool.parallelFor(total, [&](std::size_t j) {
        const sweepd::JobSpec &job = manifest.jobs[j];
        stepped[j].scheduler = job.scheduler;
        try {
            const JobOutput got = tracedJob(
                configs.at(job.protocol), mixForJob(manifest, job),
                tcm::sched::specByName(job.scheduler).spec, scale,
                *caches.at(job.protocol), job.seed, *res.spans, j + 1, false,
                stepped[j]);
            if (j >= records.size())
                throw std::runtime_error("no stream record");
            const results::ResultsDoc doc =
                results::ResultsDoc::fromJson(records[j]);
            auto field = [&](const char *key) {
                const double *v = doc.rows.empty()
                                      ? nullptr
                                      : doc.rows.front().find(key);
                if (v == nullptr)
                    throw std::runtime_error(std::string("record lacks ") +
                                             key);
                return *v;
            };
            errors[j] = outputMismatch({{}, field("ws"), field("ms"),
                                        field("hs")},
                                       {{}, got.ws, got.ms, got.hs});
        } catch (const std::exception &e) {
            errors[j] = e.what();
        }
    });
    std::map<std::string, std::vector<double>> bySched;
    for (std::size_t j = 0; j < total; ++j) {
        ++res.attempted;
        bySched[stepped[j].scheduler].push_back(stepped[j].jobS);
        if (!errors[j].empty())
            res.fail("replayed job " + std::to_string(j) +
                     " differs from its stream record: " + errors[j]);
    }

    addLayerMetrics(res, stepped, profiled);
    auto add = [&](const std::string &name, double v, const std::string &u) {
        res.perLayer.push_back({name, v, u});
    };
    add("sim.alone_prewarm_s", prewarmS, "s");
    add("sim.alone_distinct_profiles", static_cast<double>(distinct),
        "count");
    add("sim.alone_hit_ratio",
        static_cast<double>(traced.hits) /
            static_cast<double>(
                std::max<std::uint64_t>(traced.hits + traced.misses, 1)),
        "ratio");
    add("sim.sweepd_cold_pass_s", median(setup), "s");
    add("sim.sweepd_warm_pass_s", median(plain.warmWalls), "s");
    add("sim.sweepd_resume_pass_s", plain.resumeWall, "s");
    add("sim.sweepd_batch_s_p50", median(plain.batchS), "s");
    add("sim.sweepd_warm_cache_misses",
        static_cast<double>(plain.misses + traced.misses), "count");
    for (const auto &[name, secs] : bySched)
        add("sched." + name + ".job_s_p50", median(secs), "s");
    // sweepd's own pool: the profiled passes' step-phase time over their
    // worker time. Construction and record formatting fall outside the
    // profiler's phases, so this is a lower bound.
    double stepMs = 0.0;
    for (const LayerSample &s : profiled)
        stepMs += s.schedTickMs + s.ctrlTickMs + s.coreTickMs;
    add("common.pool_busy_share", stepMs / 1e3 / (o.workers * traced.passWall),
        "ratio");
    add("bench.trace_overhead",
        jobsPerS / (static_cast<double>(traced.emitted) / traced.wall),
        "ratio");
    res.notes.push_back(
        "untraced half: " + std::to_string(plain.emitted) + " jobs, " +
        tcm::formatDouble(jobsPerS, 3) + " jobs/s; profiled half: " +
        std::to_string(traced.emitted) + " jobs, " +
        std::to_string(profiled.size()) + " TCMSIM_PROFILE files");
    return res;
}

} // namespace perfbench
