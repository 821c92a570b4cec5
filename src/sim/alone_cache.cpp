#include "sim/alone_cache.hpp"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "common/file_io.hpp"
#include "common/hash.hpp"
#include "common/numfmt.hpp"
#include "sim/simulator.hpp"

namespace tcm::sim {

namespace {

/** Store format version; bump on any layout change. */
constexpr int kStoreVersion = 1;
constexpr const char *kStoreMagic = "tcmsim-alone-cache";

void
appendField(std::string &out, const char *name, double v)
{
    out += name;
    out += '=';
    out += formatDouble(v);
    out += ';';
}

void
appendField(std::string &out, const char *name, long long v)
{
    out += name;
    out += '=';
    out += std::to_string(v);
    out += ';';
}

void
appendField(std::string &out, const char *name, int v)
{
    appendField(out, name, static_cast<long long>(v));
}

/** Split @p line on single spaces (store fields never contain spaces). */
std::vector<std::string>
splitFields(const std::string &line)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= line.size()) {
        std::size_t sp = line.find(' ', start);
        if (sp == std::string::npos) {
            out.push_back(line.substr(start));
            break;
        }
        out.push_back(line.substr(start, sp - start));
        start = sp + 1;
    }
    return out;
}

} // namespace

AloneIpcCache::AloneIpcCache(const SystemConfig &config, Cycle warmup,
                             Cycle measure)
    : config_(config), warmup_(warmup), measure_(measure)
{
}

AloneIpcCache::Entry &
AloneIpcCache::entryFor(const Key &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_[key];
}

double
AloneIpcCache::computeAloneIpc(const workload::ThreadProfile &profile) const
{
    workload::ThreadProfile alone = profile;
    alone.weight = 1; // weights are meaningless without competitors
    Simulator sim(config_, {alone}, sched::SchedulerSpec::frfcfs(),
                  /*seed=*/42);
    sim.run(warmup_, measure_);
    return sim.measuredIpc(0);
}

double
AloneIpcCache::aloneIpc(const workload::ThreadProfile &profile)
{
    lookups_.fetch_add(1, std::memory_order_relaxed);
    Entry &entry = entryFor(profile.aloneBehaviorKey());
    // Per-entry latch: the first caller simulates (outside the map lock,
    // so other keys proceed in parallel); concurrent callers of the same
    // key block here until the value is ready.
    std::call_once(entry.once, [&] {
        misses_.fetch_add(1, std::memory_order_relaxed);
        entry.ipc = computeAloneIpc(profile);
    });
    return entry.ipc;
}

void
AloneIpcCache::prewarm(
    const std::vector<std::vector<workload::ThreadProfile>> &workloads,
    ThreadPool &pool)
{
    std::vector<const workload::ThreadProfile *> distinct;
    std::set<Key> seen;
    for (const auto &mix : workloads)
        for (const auto &profile : mix)
            if (seen.insert(profile.aloneBehaviorKey()).second)
                distinct.push_back(&profile);

    pool.parallelFor(distinct.size(),
                     [&](std::size_t i) { aloneIpc(*distinct[i]); });
}

std::size_t
AloneIpcCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.size();
}

std::uint64_t
AloneIpcCache::fingerprint(const SystemConfig &c, Cycle warmup,
                           Cycle measure)
{
    // Canonical name=value description of every behaviour-affecting
    // field. Adding a behaviour-affecting field to SystemConfig (or its
    // sub-params) without listing it here would let a stale store alias
    // a changed configuration — the same audit obligation as
    // ThreadProfile::aloneBehaviorKey, enforced the same way (see
    // tests/test_alone_store.cpp FingerprintCoversConfigKnobs).
    std::string d;
    d.reserve(512);
    appendField(d, "horizon.warmup", static_cast<long long>(warmup));
    appendField(d, "horizon.measure", static_cast<long long>(measure));
    appendField(d, "cores", c.numCores);
    appendField(d, "channels", c.numChannels);
    appendField(d, "mpkiScale", c.mpkiScale);

    const dram::TimingParams &t = c.timing;
    d += "protocol=" + t.protocol + ";";
    appendField(d, "generation", static_cast<long long>(t.generation));
    appendField(d, "cyclesPerNs", t.cyclesPerNs);
    appendField(d, "tCK", static_cast<long long>(t.tCK));
    appendField(d, "tCL", static_cast<long long>(t.tCL));
    appendField(d, "tCWL", static_cast<long long>(t.tCWL));
    appendField(d, "tRCD", static_cast<long long>(t.tRCD));
    appendField(d, "tRP", static_cast<long long>(t.tRP));
    appendField(d, "tRAS", static_cast<long long>(t.tRAS));
    appendField(d, "tRC", static_cast<long long>(t.tRC));
    appendField(d, "tBURST", static_cast<long long>(t.tBURST));
    appendField(d, "tCCD_S", static_cast<long long>(t.tCCD_S));
    appendField(d, "tCCD_L", static_cast<long long>(t.tCCD_L));
    appendField(d, "tRRD_S", static_cast<long long>(t.tRRD_S));
    appendField(d, "tRRD_L", static_cast<long long>(t.tRRD_L));
    appendField(d, "tWR", static_cast<long long>(t.tWR));
    appendField(d, "tWTR", static_cast<long long>(t.tWTR));
    appendField(d, "tRTP", static_cast<long long>(t.tRTP));
    appendField(d, "tFAW", static_cast<long long>(t.tFAW));
    appendField(d, "tRTRS", static_cast<long long>(t.tRTRS));
    appendField(d, "tREFI", static_cast<long long>(t.tREFI));
    appendField(d, "tRFC", static_cast<long long>(t.tRFC));
    appendField(d, "cpuToMc", static_cast<long long>(t.cpuToMcDelay));
    appendField(d, "mcToCpu", static_cast<long long>(t.mcToCpuDelay));
    appendField(d, "banks", t.banksPerChannel);
    appendField(d, "ranks", t.ranksPerChannel);
    appendField(d, "groups", t.bankGroupsPerRank);
    appendField(d, "rows", t.rowsPerBank);
    appendField(d, "cols", t.colsPerRow);
    appendField(d, "refresh", t.refreshEnabled ? 1 : 0);

    const core::CoreParams &k = c.core;
    appendField(d, "window", k.windowSize);
    appendField(d, "fetch", k.fetchWidth);
    appendField(d, "retire", k.retireWidth);
    appendField(d, "memPerCycle", k.maxMemPerCycle);

    const mem::ControllerParams &m = c.controller;
    appendField(d, "pagePolicy", static_cast<long long>(m.pagePolicy));
    appendField(d, "readCap", m.readQueueCap);
    appendField(d, "writeCap", m.writeQueueCap);
    appendField(d, "drainHi", m.writeDrain.highWatermark);
    appendField(d, "drainLo", m.writeDrain.lowWatermark);

    return fnv1a64(d);
}

std::uint64_t
AloneIpcCache::fingerprint() const
{
    return fingerprint(config_, warmup_, measure_);
}

AloneIpcCache::LoadResult
AloneIpcCache::loadFromFile(const std::string &path)
{
    LoadResult res;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        res.message = "cannot open " + path;
        return res;
    }

    std::string line;
    if (!std::getline(in, line) ||
        line != std::string(kStoreMagic) + " v" +
                    std::to_string(kStoreVersion)) {
        res.message = "unrecognized store header in " + path;
        return res;
    }
    if (!std::getline(in, line)) {
        res.message = "truncated store (no fingerprint) in " + path;
        return res;
    }
    {
        auto fields = splitFields(line);
        std::uint64_t fp = 0;
        if (fields.size() != 2 || fields[0] != "fingerprint" ||
            !parseU64(fields[1], &fp, 16)) {
            res.message = "malformed fingerprint line in " + path;
            return res;
        }
        if (fp != fingerprint()) {
            res.message = "fingerprint mismatch in " + path +
                          " (store was built for a different "
                          "configuration or run horizon)";
            return res;
        }
    }

    // Parse the whole body before adopting anything: a corrupt line
    // must not leave a half-loaded cache behind.
    std::vector<std::pair<Key, double>> entries;
    bool sawEnd = false;
    while (std::getline(in, line)) {
        auto fields = splitFields(line);
        if (!fields.empty() && fields[0] == "end") {
            if (fields.size() != 2 ||
                fields[1] != std::to_string(entries.size())) {
                res.message = "entry-count trailer mismatch in " + path;
                return res;
            }
            sawEnd = true;
            break;
        }
        double mpki, rbl, blp, wf, ipc;
        if (fields.size() != 6 || fields[0] != "entry" ||
            !parseDouble(fields[1], &mpki) ||
            !parseDouble(fields[2], &rbl) ||
            !parseDouble(fields[3], &blp) ||
            !parseDouble(fields[4], &wf) ||
            !parseDouble(fields[5], &ipc)) {
            res.message = "corrupt entry line in " + path;
            return res;
        }
        entries.emplace_back(Key{mpki, rbl, blp, wf}, ipc);
    }
    if (!sawEnd) {
        res.message = "truncated store (no end trailer) in " + path;
        return res;
    }

    for (const auto &[key, ipc] : entries) {
        Entry &entry = entryFor(key);
        // Fire the latch with the stored value; an entry computed in
        // this process already holds its latch and wins.
        std::call_once(entry.once, [&] { entry.ipc = ipc; });
    }
    res.ok = true;
    res.loaded = entries.size();
    return res;
}

void
AloneIpcCache::saveToFile(const std::string &path) const
{
    std::string body;
    std::size_t count = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[key, entry] : cache_) {
            body += "entry " + formatDouble(std::get<0>(key)) + " " +
                    formatDouble(std::get<1>(key)) + " " +
                    formatDouble(std::get<2>(key)) + " " +
                    formatDouble(std::get<3>(key)) + " " +
                    formatDouble(entry.ipc) + "\n";
            ++count;
        }
    }

    char fp[32];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(fingerprint()));
    std::string text = std::string(kStoreMagic) + " v" +
                       std::to_string(kStoreVersion) + "\n" +
                       "fingerprint " + fp + "\n" + body + "end " +
                       std::to_string(count) + "\n";

    replaceFile(path, "alone-cache", text);
}

} // namespace tcm::sim
