#include "telemetry/sink.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>

#include "common/json.hpp"
#include "common/numfmt.hpp"

namespace tcm::telemetry {

namespace {

/** Geometric ladder matching mem::LatencyTracker's reporting range. */
stats::Histogram
lifecycleLadder()
{
    return stats::Histogram::exponential(25.0, 1.5, 28);
}

void
writeOrThrow(const std::string &path,
             const std::function<void(std::FILE *)> &body)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("telemetry: cannot write " + path);
    body(f);
    if (std::ferror(f)) {
        std::fclose(f);
        throw std::runtime_error("telemetry: write error on " + path);
    }
    std::fclose(f);
}

/** JSON value for a gauge: the number, or null when not measured. */
std::string
jsonGauge(double v)
{
    return hasGauge(v) ? jsonNumber(v) : std::string("null");
}

} // namespace

const std::string &
DecisionEvent::arg(const std::string &key) const
{
    static const std::string kEmpty;
    for (const auto &[k, v] : args)
        if (k == key)
            return v;
    return kEmpty;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null"; // JSON has no NaN/Infinity
    // Locale-independent shortest round-trip form: goldens diffed across
    // platforms must not depend on LC_NUMERIC or printf rounding.
    return formatDouble(v);
}

std::string
jsonNumber(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    return buf;
}

std::string
jsonNumber(std::int64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRId64, v);
    return buf;
}

std::string
jsonArray(const std::vector<int> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += jsonNumber(static_cast<std::int64_t>(v[i]));
    }
    out += ']';
    return out;
}

std::string
jsonArray(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += jsonNumber(v[i]);
    }
    out += ']';
    return out;
}

TelemetrySink::ThreadLifecycle::ThreadLifecycle()
    : queueingHist(lifecycleLadder()), serviceHist(lifecycleLadder())
{
}

TelemetrySink::TelemetrySink(const TelemetryConfig &config)
    : config_(config),
      threadSamples_(kRingCapacity),
      channelSamples_(kRingCapacity),
      events_(kRingCapacity),
      simulatorSamples_(kRingCapacity)
{
}

void
TelemetrySink::addThreadSample(const ThreadSample &sample)
{
    threadSamples_.push(sample);
}

void
TelemetrySink::addChannelSample(const ChannelSample &sample)
{
    channelSamples_.push(sample);
}

void
TelemetrySink::addSimulatorSample(const SimulatorSample &sample)
{
    simulatorSamples_.push(sample);
}

void
TelemetrySink::onDecision(DecisionEvent event)
{
    events_.push(std::move(event));
}

TelemetrySink::ThreadLifecycle &
TelemetrySink::growLifecycle(ThreadId thread)
{
    if (thread >= static_cast<ThreadId>(lifecycles_.size()))
        lifecycles_.resize(thread + 1);
    return lifecycles_[thread];
}

void
TelemetrySink::recordLifecycle(ThreadId thread, Cycle queueing,
                               Cycle service)
{
    ThreadLifecycle &lc = growLifecycle(thread);
    lc.queueing.add(static_cast<double>(queueing));
    lc.service.add(static_cast<double>(service));
    lc.queueingHist.add(static_cast<double>(queueing));
    lc.serviceHist.add(static_cast<double>(service));
    ++lifecycleRecords_;
}

const DecisionEvent *
TelemetrySink::lastEvent(const std::string &name) const
{
    const DecisionEvent *found = nullptr;
    events_.forEach([&](const DecisionEvent &e) {
        if (e.name == name)
            found = &e;
    });
    return found;
}

std::vector<const DecisionEvent *>
TelemetrySink::eventsNamed(const std::string &name) const
{
    std::vector<const DecisionEvent *> out;
    events_.forEach([&](const DecisionEvent &e) {
        if (e.name == name)
            out.push_back(&e);
    });
    return out;
}

const TelemetrySink::ThreadLifecycle &
TelemetrySink::lifecycle(ThreadId thread) const
{
    static const ThreadLifecycle kEmpty;
    if (thread < 0 || thread >= static_cast<ThreadId>(lifecycles_.size()))
        return kEmpty;
    return lifecycles_[thread];
}

std::uint64_t
TelemetrySink::totalRecords() const
{
    return threadSamples_.size() + channelSamples_.size() +
           events_.size() + lifecycleRecords_;
}

std::uint64_t
TelemetrySink::droppedRecords() const
{
    return threadSamples_.dropped() + channelSamples_.dropped() +
           events_.dropped();
}

// ---------------------------------------------------------------------------
// JSONL
// ---------------------------------------------------------------------------

void
TelemetrySink::writeJsonl(std::FILE *out) const
{
    std::fprintf(out,
                 "{\"type\":\"meta\",\"scheduler\":%s,\"threads\":%d,"
                 "\"channels\":%d,\"sample_interval\":%" PRIu64
                 ",\"seed\":%" PRIu64 "}\n",
                 json::quote(meta_.scheduler).c_str(), meta_.numThreads,
                 meta_.numChannels,
                 static_cast<std::uint64_t>(meta_.sampleInterval),
                 meta_.seed);

    threadSamples_.forEach([&](const ThreadSample &s) {
        std::fprintf(out,
                     "{\"type\":\"thread_sample\",\"cycle\":%" PRIu64
                     ",\"thread\":%d,\"ipc\":%s,\"mpki\":%s,\"rbl\":%s,"
                     "\"blp\":%s,\"outstanding\":%s}\n",
                     static_cast<std::uint64_t>(s.cycle), s.thread,
                     jsonNumber(s.ipc).c_str(), jsonNumber(s.mpki).c_str(),
                     jsonGauge(s.rbl).c_str(), jsonGauge(s.blp).c_str(),
                     jsonGauge(s.outstanding).c_str());
    });

    channelSamples_.forEach([&](const ChannelSample &s) {
        std::fprintf(out,
                     "{\"type\":\"channel_sample\",\"cycle\":%" PRIu64
                     ",\"channel\":%d,\"read_q\":%u,\"write_q\":%u,"
                     "\"row_hit_rate\":%s,\"cmd_bus_util\":%s,"
                     "\"data_bus_util\":%s}\n",
                     static_cast<std::uint64_t>(s.cycle), s.channel,
                     s.readQueue, s.writeQueue,
                     jsonGauge(s.rowHitRate).c_str(),
                     jsonNumber(s.cmdBusUtil).c_str(),
                     jsonNumber(s.dataBusUtil).c_str());
    });

    events_.forEach([&](const DecisionEvent &e) {
        std::fprintf(out,
                     "{\"type\":\"event\",\"cycle\":%" PRIu64
                     ",\"name\":%s,\"cat\":%s,\"args\":{",
                     static_cast<std::uint64_t>(e.cycle),
                     json::quote(e.name).c_str(),
                     json::quote(e.category).c_str());
        for (std::size_t i = 0; i < e.args.size(); ++i)
            std::fprintf(out, "%s%s:%s", i ? "," : "",
                         json::quote(e.args[i].first).c_str(),
                         e.args[i].second.c_str());
        std::fprintf(out, "}}\n");
    });

    for (ThreadId t = 0; t < static_cast<ThreadId>(lifecycles_.size());
         ++t) {
        const ThreadLifecycle &lc = lifecycles_[t];
        if (lc.queueing.count() == 0)
            continue;
        std::fprintf(out,
                     "{\"type\":\"lifecycle\",\"thread\":%d,\"reads\":%"
                     PRIu64 ",\"queue_mean\":%s,\"queue_p99\":%s,"
                     "\"service_mean\":%s,\"service_p99\":%s}\n",
                     t, lc.queueing.count(),
                     jsonNumber(lc.queueing.mean()).c_str(),
                     jsonNumber(lc.queueingHist.percentile(0.99)).c_str(),
                     jsonNumber(lc.service.mean()).c_str(),
                     jsonNumber(lc.serviceHist.percentile(0.99)).c_str());
    }

    std::fprintf(out,
                 "{\"type\":\"tail\",\"thread_samples\":%zu,"
                 "\"channel_samples\":%zu,\"events\":%zu,"
                 "\"lifecycle_records\":%" PRIu64 ",\"dropped\":%" PRIu64
                 "}\n",
                 threadSamples_.size(), channelSamples_.size(),
                 events_.size(), lifecycleRecords_, droppedRecords());
}

void
TelemetrySink::writeJsonl(const std::string &path) const
{
    writeOrThrow(path, [this](std::FILE *f) { writeJsonl(f); });
}

// ---------------------------------------------------------------------------
// Chrome trace-event format (Perfetto / chrome://tracing)
// ---------------------------------------------------------------------------

void
TelemetrySink::writeChromeTrace(std::FILE *out) const
{
    // ts is the CPU cycle; Perfetto displays it as microseconds, which
    // keeps the timeline readable (1 "us" = 1 cycle) without scaling.
    bool first = true;
    auto sep = [&]() {
        std::fprintf(out, "%s", first ? "[\n" : ",\n");
        first = false;
    };

    sep();
    std::fprintf(out,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
                 "\"tid\":0,\"args\":{\"name\":%s}}",
                 json::quote("tcmsim " + meta_.scheduler).c_str());

    threadSamples_.forEach([&](const ThreadSample &s) {
        sep();
        std::fprintf(out,
                     "{\"name\":\"t%d\",\"ph\":\"C\",\"pid\":0,\"ts\":%"
                     PRIu64 ",\"args\":{\"ipc\":%s,\"mpki\":%s",
                     s.thread, static_cast<std::uint64_t>(s.cycle),
                     jsonNumber(s.ipc).c_str(),
                     jsonNumber(s.mpki).c_str());
        if (hasGauge(s.rbl))
            std::fprintf(out, ",\"rbl\":%s", jsonNumber(s.rbl).c_str());
        if (hasGauge(s.blp))
            std::fprintf(out, ",\"blp\":%s", jsonNumber(s.blp).c_str());
        if (hasGauge(s.outstanding))
            std::fprintf(out, ",\"outstanding\":%s",
                         jsonNumber(s.outstanding).c_str());
        std::fprintf(out, "}}");
    });

    channelSamples_.forEach([&](const ChannelSample &s) {
        sep();
        std::fprintf(out,
                     "{\"name\":\"ch%d.queues\",\"ph\":\"C\",\"pid\":0,"
                     "\"ts\":%" PRIu64
                     ",\"args\":{\"read\":%u,\"write\":%u}}",
                     s.channel, static_cast<std::uint64_t>(s.cycle),
                     s.readQueue, s.writeQueue);
        sep();
        std::fprintf(out,
                     "{\"name\":\"ch%d.util\",\"ph\":\"C\",\"pid\":0,"
                     "\"ts\":%" PRIu64 ",\"args\":{\"cmd_bus\":%s,"
                     "\"data_bus\":%s",
                     s.channel, static_cast<std::uint64_t>(s.cycle),
                     jsonNumber(s.cmdBusUtil).c_str(),
                     jsonNumber(s.dataBusUtil).c_str());
        if (hasGauge(s.rowHitRate))
            std::fprintf(out, ",\"row_hit\":%s",
                         jsonNumber(s.rowHitRate).c_str());
        std::fprintf(out, "}}");
    });

    // The simulator's self-observation lane (tid 1): host wall clock
    // and cycle-skip progress from the attached profiler. Chrome-trace
    // only — the JSONL stream never carries these (bit-identity).
    if (!simulatorSamples_.empty()) {
        sep();
        std::fprintf(out,
                     "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                     "\"tid\":1,\"args\":{\"name\":\"simulator\"}}");
        simulatorSamples_.forEach([&](const SimulatorSample &s) {
            sep();
            std::fprintf(out,
                         "{\"name\":\"sim.wall_ms\",\"ph\":\"C\",\"pid\":0,"
                         "\"tid\":1,\"ts\":%" PRIu64
                         ",\"args\":{\"wall_ms\":%s}}",
                         static_cast<std::uint64_t>(s.cycle),
                         jsonNumber(s.wallMs).c_str());
            sep();
            std::fprintf(out,
                         "{\"name\":\"sim.skip\",\"ph\":\"C\",\"pid\":0,"
                         "\"tid\":1,\"ts\":%" PRIu64
                         ",\"args\":{\"skips\":%" PRIu64
                         ",\"skipped_cycles\":%" PRIu64 "}}",
                         static_cast<std::uint64_t>(s.cycle), s.skips,
                         s.skippedCycles);
        });
    }

    events_.forEach([&](const DecisionEvent &e) {
        sep();
        std::fprintf(out,
                     "{\"name\":%s,\"cat\":%s,\"ph\":\"i\",\"ts\":%" PRIu64
                     ",\"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":{",
                     json::quote(e.name).c_str(),
                     json::quote(e.category).c_str(),
                     static_cast<std::uint64_t>(e.cycle));
        for (std::size_t i = 0; i < e.args.size(); ++i)
            std::fprintf(out, "%s%s:%s", i ? "," : "",
                         json::quote(e.args[i].first).c_str(),
                         e.args[i].second.c_str());
        std::fprintf(out, "}}");
    });

    std::fprintf(out, "%s", first ? "[]\n" : "\n]\n");
}

void
TelemetrySink::writeChromeTrace(const std::string &path) const
{
    writeOrThrow(path, [this](std::FILE *f) { writeChromeTrace(f); });
}

} // namespace tcm::telemetry
