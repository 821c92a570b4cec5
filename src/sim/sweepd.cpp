#include "sim/sweepd.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "common/hash.hpp"
#include "common/numfmt.hpp"
#include "common/thread_pool.hpp"
#include "sim/results.hpp"
#include "workload/mixes.hpp"

namespace fs = std::filesystem;

namespace tcm::sim::sweepd {

namespace {

constexpr const char *kManifestMagic = "tcmsim-manifest v1";
constexpr const char *kCheckpointMagic = "tcmsim-sweepd-ckpt v1";

std::vector<std::string>
splitWords(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream in(line);
    std::string w;
    while (in >> w)
        out.push_back(w);
    return out;
}

/** The deterministic mix a job denotes (manifest-content independent). */
std::vector<workload::ThreadProfile>
mixForJob(const Manifest &m, const JobSpec &job)
{
    // The workloadSet convention of the batch drivers: the intensity
    // selects a seed family, the index an element of it.
    std::uint64_t base =
        m.workloadSeed + static_cast<std::uint64_t>(job.intensity * 1000);
    return workload::randomMix(
        m.cores, job.intensity,
        base + 1000003ULL * static_cast<std::uint64_t>(job.mixIndex + 1));
}

/** Stable stream identity of a job (the record's point key). */
std::string
pointOf(const JobSpec &job)
{
    return job.protocol + "/i" + formatDouble(job.intensity) + "/w" +
           std::to_string(job.mixIndex) + "/s" +
           std::to_string(job.seed);
}

struct Checkpoint
{
    std::uint64_t manifestHash = 0;
    std::uint64_t emitted = 0;
    std::uint64_t offset = 0;
};

bool
readCheckpoint(const std::string &path, Checkpoint *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::string line;
    if (!std::getline(in, line) || line != kCheckpointMagic)
        return false;
    std::string tag, value;
    std::uint64_t fields[3];
    const char *tags[3] = {"manifest", "emitted", "offset"};
    for (int i = 0; i < 3; ++i) {
        if (!std::getline(in, line))
            return false;
        auto words = splitWords(line);
        if (words.size() != 2 || words[0] != tags[i])
            return false;
        // The manifest hash is hex; the counters are decimal.
        if (!parseU64(words[1], &fields[i], i == 0 ? 16 : 10))
            return false;
    }
    out->manifestHash = fields[0];
    out->emitted = fields[1];
    out->offset = fields[2];
    return true;
}

void
writeCheckpoint(const std::string &path, const Checkpoint &ckpt)
{
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(ckpt.manifestHash));
    std::string text = std::string(kCheckpointMagic) + "\n" +
                       "manifest " + hex + "\n" + "emitted " +
                       std::to_string(ckpt.emitted) + "\n" + "offset " +
                       std::to_string(ckpt.offset) + "\n";
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f)
        throw std::runtime_error("sweepd: cannot write " + tmp);
    std::fwrite(text.data(), 1, text.size(), f);
    bool bad = std::ferror(f) != 0;
    std::fclose(f);
    if (bad || std::rename(tmp.c_str(), path.c_str()) != 0)
        throw std::runtime_error("sweepd: checkpoint write failed for " +
                                 path);
}

/** Per-protocol simulation context: config + persistent alone cache. */
struct CacheSlot
{
    SystemConfig config;
    std::unique_ptr<AloneIpcCache> cache;
    std::string storePath;
    std::size_t savedEntries = 0; //!< store size at last save/load
};

} // namespace

ExperimentScale
Manifest::scale() const
{
    ExperimentScale s;
    s.warmup = warmup;
    s.measure = measure;
    s.workloadsPerCategory = 0; // manifests enumerate jobs explicitly
    s.sampling = sampling;
    return s;
}

bool
Manifest::parse(const std::string &text, Manifest *out, std::string *error)
{
    auto fail = [&](int lineNo, const std::string &why) {
        if (error)
            *error = "manifest line " + std::to_string(lineNo) + ": " + why;
        return false;
    };

    Manifest m;
    m.textHash = fnv1a64(text);

    std::istringstream in(text);
    std::string line;
    int lineNo = 0;
    bool sawMagic = false;
    while (std::getline(in, line)) {
        ++lineNo;
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        auto words = splitWords(line);
        if (words.empty())
            continue;
        if (!sawMagic) {
            if (words.size() != 2 || words[0] + " " + words[1] != kManifestMagic)
                return fail(lineNo, "expected header '" +
                                        std::string(kManifestMagic) + "'");
            sawMagic = true;
            continue;
        }
        const std::string &key = words[0];
        if (key == "job") {
            if (words.size() != 6)
                return fail(lineNo,
                            "expected 'job SCHEDULER PROTOCOL INTENSITY "
                            "MIX-INDEX SEED'");
            JobSpec job;
            job.scheduler = words[1];
            job.protocol = words[2];
            sched::SpecLookup lookup = sched::specByName(job.scheduler);
            if (!lookup.ok)
                return fail(lineNo, lookup.error);
            {
                SystemConfig probe;
                std::string err = probe.selectProtocol(job.protocol);
                if (!err.empty())
                    return fail(lineNo, err);
            }
            // Written so that "nan" (which parses) fails the range.
            if (!parseDouble(words[3], &job.intensity) ||
                !(job.intensity >= 0.0 && job.intensity <= 1.0))
                return fail(lineNo, "intensity must be in [0,1]");
            if (!parseInt(words[4], &job.mixIndex) || job.mixIndex < 0)
                return fail(lineNo, "mix index must be >= 0");
            if (!parseU64(words[5], &job.seed))
                return fail(lineNo, "bad seed");
            m.jobs.push_back(std::move(job));
            continue;
        }
        if (words.size() != 2)
            return fail(lineNo, "expected '" + key + " VALUE'");
        const std::string &value = words[1];
        std::uint64_t u = 0;
        if (key == "cores") {
            if (!parseInt(value, &m.cores) || m.cores < 1)
                return fail(lineNo, "bad cores");
        } else if (key == "channels") {
            if (!parseInt(value, &m.channels) || m.channels < 1)
                return fail(lineNo, "bad channels");
        } else if (key == "warmup") {
            if (!parseU64(value, &u))
                return fail(lineNo, "bad warmup");
            m.warmup = static_cast<Cycle>(u);
        } else if (key == "cycles") {
            if (!parseU64(value, &u) || u == 0)
                return fail(lineNo, "bad cycles");
            m.measure = static_cast<Cycle>(u);
        } else if (key == "workload-seed") {
            if (!parseU64(value, &m.workloadSeed))
                return fail(lineNo, "bad workload-seed");
        } else if (key == "sample") {
            std::string err;
            m.sampling = SamplingConfig::parse(value, &err);
            if (!m.sampling.enabled)
                return fail(lineNo, err);
        } else {
            return fail(lineNo, "unknown directive '" + key + "'");
        }
    }
    if (!sawMagic)
        return fail(1, "empty manifest (missing header)");
    if (m.jobs.empty())
        return fail(lineNo, "manifest has no jobs");
    *out = std::move(m);
    return true;
}

Server::Server(Options options) : options_(std::move(options)) {}

RunOutcome
Server::runManifest(const std::string &manifestPath,
                    const std::string &outPath)
{
    RunOutcome outcome;
    auto log = [&](const std::string &msg) {
        if (options_.log)
            options_.log(msg);
    };
    auto failed = [&](const std::string &why) {
        outcome.ok = false;
        outcome.error = why;
        log("sweepd: " + why);
        return outcome;
    };

    const auto t0 = std::chrono::steady_clock::now();
    std::string text;
    {
        std::ifstream in(manifestPath, std::ios::binary);
        if (!in)
            return failed("cannot read manifest " + manifestPath);
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }
    Manifest manifest;
    std::string parseError;
    if (!Manifest::parse(text, &manifest, &parseError))
        return failed(parseError);

    try {
        fs::create_directories(options_.stateDir);
        fs::create_directories(fs::path(outPath).parent_path().empty()
                                   ? fs::path(".")
                                   : fs::path(outPath).parent_path());
    } catch (const fs::filesystem_error &e) {
        return failed(std::string("cannot create directories: ") + e.what());
    }

    const ExperimentScale scale = manifest.scale();

    // -- checkpoint/resume ---------------------------------------------------
    const std::string ckptPath = outPath + ".ckpt";
    Checkpoint ckpt;
    std::uint64_t next = 0;
    if (readCheckpoint(ckptPath, &ckpt) &&
        ckpt.manifestHash == manifest.textHash &&
        ckpt.emitted <= manifest.jobs.size() && fs::exists(outPath) &&
        fs::file_size(outPath) >= ckpt.offset) {
        // Drop any bytes past the checkpoint: records written after it
        // were not durably accounted, so the restart re-runs their jobs
        // and re-emits identical bytes.
        fs::resize_file(outPath, ckpt.offset);
        next = ckpt.emitted;
        outcome.resumed = true;
        log("sweepd: resuming " + manifestPath + " at job " +
            std::to_string(next) + "/" +
            std::to_string(manifest.jobs.size()));
    } else {
        std::FILE *f = std::fopen(outPath.c_str(), "w"); // truncate
        if (!f)
            return failed("cannot write " + outPath);
        std::fclose(f);
        ckpt = Checkpoint{manifest.textHash, 0, 0};
    }

    std::FILE *stream = std::fopen(outPath.c_str(), "ab");
    if (!stream)
        return failed("cannot append to " + outPath);

    // -- persistent alone-IPC caches, one per distinct protocol -------------
    std::map<std::string, CacheSlot> slots;
    for (const JobSpec &job : manifest.jobs) {
        if (slots.count(job.protocol))
            continue;
        CacheSlot slot;
        slot.config.numCores = manifest.cores;
        slot.config.numChannels = manifest.channels;
        slot.config.selectProtocol(job.protocol); // validated at parse
        slot.cache = std::make_unique<AloneIpcCache>(
            slot.config, scale.effectiveWarmup(), scale.effectiveMeasure());
        char hex[32];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(
                          slot.cache->fingerprint()));
        slot.storePath = options_.stateDir + "/alone-" + hex + ".cache";
        AloneIpcCache::LoadResult loaded =
            slot.cache->loadFromFile(slot.storePath);
        if (loaded.ok) {
            slot.savedEntries = loaded.loaded;
            log("sweepd: alone store " + slot.storePath + ": " +
                std::to_string(loaded.loaded) + " entries");
        } else if (fs::exists(slot.storePath)) {
            // A store that exists but does not load is stale or damaged;
            // denominators recompute from scratch, which is always safe.
            log("sweepd: alone store rejected (" + loaded.message +
                "); recomputing");
        }
        slots.emplace(job.protocol, std::move(slot));
    }

    ThreadPool pool(options_.jobs);
    const std::size_t batchSize =
        options_.batch > 0 ? static_cast<std::size_t>(options_.batch)
                           : static_cast<std::size_t>(pool.jobs()) * 4;
    const std::uint64_t total = manifest.jobs.size();
    std::uint64_t batches = 0;
    bool stopped = false;

    while (next < total) {
        if (options_.stopAfter != 0 &&
            outcome.emittedThisSession >= options_.stopAfter) {
            stopped = true;
            break;
        }
        std::size_t count = std::min<std::size_t>(batchSize, total - next);
        if (options_.stopAfter != 0)
            count = std::min<std::size_t>(
                count, options_.stopAfter - outcome.emittedThisSession);

        // Prewarm denominators per protocol so the batch proper runs
        // against read-only caches (misses parallelize here instead of
        // serializing behind per-key latches mid-run).
        {
            std::map<std::string,
                     std::vector<std::vector<workload::ThreadProfile>>>
                byProtocol;
            for (std::size_t i = 0; i < count; ++i) {
                const JobSpec &job = manifest.jobs[next + i];
                byProtocol[job.protocol].push_back(
                    mixForJob(manifest, job));
            }
            for (auto &[protocol, mixes] : byProtocol)
                slots.at(protocol).cache->prewarm(mixes, pool);
        }

        std::vector<std::string> records(count);
        try {
            pool.parallelFor(count, [&](std::size_t i) {
                const JobSpec &job = manifest.jobs[next + i];
                CacheSlot &slot = slots.at(job.protocol);
                sched::SpecLookup lookup =
                    sched::specByName(job.scheduler);
                // Name the job's TCMSIM_PROFILE file after its stream
                // point, the one identity distinct across the manifest.
                SystemConfig config = slot.config;
                config.profile.filePrefix = pointOf(job) + "_";
                std::replace(config.profile.filePrefix.begin(),
                             config.profile.filePrefix.end(), '/', '_');
                RunResult r = runWorkload(config, mixForJob(manifest, job),
                                          lookup.spec, scale, *slot.cache,
                                          job.seed);
                results::ResultsDoc doc("sweepd", scale);
                results::Row &row =
                    doc.row(job.scheduler, pointOf(job));
                row.set("ws", r.metrics.weightedSpeedup);
                row.set("ms", r.metrics.maxSlowdown);
                row.set("hs", r.metrics.harmonicSpeedup);
                if (!r.ipcRse.empty())
                    row.set("rse_max",
                            *std::max_element(r.ipcRse.begin(),
                                              r.ipcRse.end()));
                records[i] = doc.toJsonLine();
            });
        } catch (const std::exception &e) {
            std::fclose(stream);
            return failed(std::string("job failed: ") + e.what());
        }

        // Emit the batch in manifest order, then checkpoint past it.
        for (const std::string &record : records)
            std::fwrite(record.data(), 1, record.size(), stream);
        if (std::fflush(stream) != 0 || std::ferror(stream)) {
            std::fclose(stream);
            return failed("stream write failed for " + outPath);
        }
        next += count;
        outcome.emittedThisSession += count;
        ++batches;

        // Persist any newly computed denominators before the checkpoint
        // references work that depended on them.
        for (auto &[protocol, slot] : slots) {
            if (slot.cache->size() == slot.savedEntries)
                continue;
            try {
                slot.cache->saveToFile(slot.storePath);
                slot.savedEntries = slot.cache->size();
            } catch (const std::exception &e) {
                log(std::string("sweepd: alone store save failed: ") +
                    e.what());
            }
        }

        ckpt.emitted = next;
        ckpt.offset = static_cast<std::uint64_t>(std::ftell(stream));
        try {
            writeCheckpoint(ckptPath, ckpt);
        } catch (const std::exception &e) {
            std::fclose(stream);
            return failed(e.what());
        }
        log("sweepd: " + std::to_string(next) + "/" +
            std::to_string(total) + " jobs emitted");
    }
    std::fclose(stream);

    outcome.ok = true;
    outcome.finished = !stopped && next == total;
    outcome.emitted = next;
    for (const auto &[protocol, slot] : slots) {
        outcome.cacheHits += slot.cache->hits();
        outcome.cacheMisses += slot.cache->misses();
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    outcome.wallSeconds = wall;
    outcome.jobsPerSec =
        wall > 0.0 ? static_cast<double>(outcome.emittedThisSession) / wall
                   : 0.0;

    // Throughput lives in the summary document's run-provenance block,
    // never in the stream: the stream must be byte-reproducible, the
    // summary is descriptive metadata (claims::diff ignores run blocks).
    results::ResultsDoc summary("sweepd-summary", scale);
    summary.wallSeconds = wall;
    summary.jobsPerSec = outcome.jobsPerSec;
    const std::uint64_t lookups = outcome.cacheHits + outcome.cacheMisses;
    if (lookups > 0)
        summary.cacheHitRate = static_cast<double>(outcome.cacheHits) /
                               static_cast<double>(lookups);
    results::Row &row = summary.row("daemon");
    row.set("jobs_total", static_cast<double>(total));
    row.set("jobs_emitted", static_cast<double>(next));
    row.set("jobs_this_session",
            static_cast<double>(outcome.emittedThisSession));
    row.set("batches", static_cast<double>(batches));
    row.set("resumed", outcome.resumed ? 1.0 : 0.0);
    row.set("finished", outcome.finished ? 1.0 : 0.0);
    row.set("cache_hits", static_cast<double>(outcome.cacheHits));
    row.set("cache_misses", static_cast<double>(outcome.cacheMisses));
    try {
        summary.save(outPath + ".summary.json");
    } catch (const std::exception &e) {
        log(std::string("sweepd: summary save failed: ") + e.what());
    }
    return outcome;
}

int
Server::drainSpool()
{
    auto log = [&](const std::string &msg) {
        if (options_.log)
            options_.log(msg);
    };
    const fs::path spool = fs::path(options_.stateDir) / "spool";
    const fs::path results = fs::path(options_.stateDir) / "results";
    const fs::path done = fs::path(options_.stateDir) / "done";
    const fs::path failedDir = fs::path(options_.stateDir) / "failed";
    std::error_code ec;
    fs::create_directories(spool, ec);
    fs::create_directories(results, ec);
    fs::create_directories(done, ec);
    fs::create_directories(failedDir, ec);

    std::vector<fs::path> manifests;
    for (const auto &entry : fs::directory_iterator(spool, ec))
        if (entry.is_regular_file() &&
            entry.path().extension() == ".manifest")
            manifests.push_back(entry.path());
    std::sort(manifests.begin(), manifests.end());

    int finished = 0;
    for (const fs::path &m : manifests) {
        const std::string stem = m.stem().string();
        RunOutcome outcome =
            runManifest(m.string(), (results / (stem + ".jsonl")).string());
        if (!outcome.ok) {
            // A manifest that cannot run (parse error, I/O) would wedge
            // the spool if left in place; park it for inspection.
            fs::rename(m, failedDir / m.filename(), ec);
            log("sweepd: " + stem + " failed: " + outcome.error);
        } else if (outcome.finished) {
            fs::rename(m, done / m.filename(), ec);
            ++finished;
            log("sweepd: " + stem + " finished (" +
                std::to_string(outcome.emitted) + " jobs)");
        } else {
            // Interrupted by stopAfter: leave it spooled; the next
            // drain resumes from its checkpoint.
            log("sweepd: " + stem + " interrupted at " +
                std::to_string(outcome.emitted) + " jobs");
        }
        if (options_.stopAfter != 0)
            break; // one interruptible manifest per drain in test mode
    }
    return finished;
}

} // namespace tcm::sim::sweepd
