#include "sim/results.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/file_io.hpp"
#include "common/json.hpp"
#include "common/numfmt.hpp"

namespace tcm::sim::results {

void
Row::set(const std::string &metric, double value)
{
    for (auto &[k, v] : metrics) {
        if (k == metric) {
            v = value;
            return;
        }
    }
    metrics.emplace_back(metric, value);
}

const double *
Row::find(const std::string &metric) const
{
    for (const auto &[k, v] : metrics)
        if (k == metric)
            return &v;
    return nullptr;
}

ResultsDoc::ResultsDoc(std::string benchName, const ExperimentScale &scale)
    : bench(std::move(benchName)),
      warmup(scale.warmup),
      measure(scale.measure),
      workloadsPerCategory(scale.workloadsPerCategory)
{
}

Row &
ResultsDoc::row(const std::string &series, const std::string &point)
{
    for (Row &r : rows)
        if (r.series == series && r.point == point)
            return r;
    rows.push_back(Row{series, point, {}});
    return rows.back();
}

void
ResultsDoc::set(const std::string &series, const std::string &metric,
                double value)
{
    row(series).set(metric, value);
}

void
ResultsDoc::setAt(const std::string &series, const std::string &point,
                  const std::string &metric, double value)
{
    row(series, point).set(metric, value);
}

const double *
ResultsDoc::find(const std::string &series, const std::string &point,
                 const std::string &metric) const
{
    for (const Row &r : rows)
        if (r.series == series && r.point == point)
            return r.find(metric);
    return nullptr;
}

namespace {

/**
 * Shared serializer behind toJson (pretty) and toJsonLine (compact): the
 * two forms differ only in whitespace, so one emitter guarantees they
 * can never drift apart in content.
 */
std::string
serializeDoc(const ResultsDoc &doc, bool pretty)
{
    const char *nl = pretty ? "\n" : "";
    const char *ind = pretty ? "  " : "";
    std::string out;
    out += "{";
    out += nl;
    out += ind;
    out += "\"schema_version\": " + std::to_string(doc.schemaVersion) + ",";
    out += nl;
    out += ind;
    out += "\"bench\": " + json::quote(doc.bench) + ",";
    out += nl;
    out += ind;
    out += "\"scale\": {\"warmup\": " +
           std::to_string(static_cast<unsigned long long>(doc.warmup)) +
           ", \"measure\": " +
           std::to_string(static_cast<unsigned long long>(doc.measure)) +
           ", \"workloads_per_category\": " +
           std::to_string(doc.workloadsPerCategory) + "},";
    out += nl;
    if (doc.wallSeconds > 0.0 || doc.hostThreads > 0 ||
        !doc.buildType.empty() || doc.cycleSkip >= 0 ||
        doc.jobsPerSec > 0.0 || doc.cacheHitRate >= 0.0 ||
        !doc.profileMetrics.empty()) {
        out += ind;
        out += "\"run\": {\"wall_seconds\": " + formatDouble(doc.wallSeconds);
        if (doc.hostThreads > 0)
            out += ", \"host_threads\": " + std::to_string(doc.hostThreads);
        if (!doc.buildType.empty())
            out += ", \"build_type\": " + json::quote(doc.buildType);
        if (doc.cycleSkip >= 0)
            out += std::string(", \"cycle_skip\": ") +
                   (doc.cycleSkip ? "true" : "false");
        if (doc.jobsPerSec > 0.0)
            out += ", \"jobs_per_sec\": " + formatDouble(doc.jobsPerSec);
        if (doc.cacheHitRate >= 0.0)
            out += ", \"cache_hit_rate\": " + formatDouble(doc.cacheHitRate);
        if (!doc.profileMetrics.empty()) {
            out += ", \"profile\": {";
            for (std::size_t m = 0; m < doc.profileMetrics.size(); ++m) {
                if (m)
                    out += ", ";
                double v = doc.profileMetrics[m].second;
                out += json::quote(doc.profileMetrics[m].first) + ": " +
                       (std::isfinite(v) ? formatDouble(v) : "null");
            }
            out += "}";
        }
        out += "},";
        out += nl;
    }
    out += ind;
    out += "\"rows\": [";
    for (std::size_t i = 0; i < doc.rows.size(); ++i) {
        const Row &r = doc.rows[i];
        if (i)
            out += ",";
        out += nl;
        if (pretty)
            out += "    ";
        out += "{\"series\": " + json::quote(r.series);
        if (!r.point.empty())
            out += ", \"point\": " + json::quote(r.point);
        out += ", \"metrics\": {";
        for (std::size_t m = 0; m < r.metrics.size(); ++m) {
            if (m)
                out += ", ";
            out += json::quote(r.metrics[m].first) + ": ";
            // JSON has no non-finite literals; null marks "not measured".
            double v = r.metrics[m].second;
            out += std::isfinite(v) ? formatDouble(v) : "null";
        }
        out += "}}";
    }
    if (!doc.rows.empty()) {
        out += nl;
        out += ind;
    }
    out += "]";
    out += nl;
    out += "}\n";
    return out;
}

} // namespace

std::string
ResultsDoc::toJson() const
{
    return serializeDoc(*this, /*pretty=*/true);
}

std::string
ResultsDoc::toJsonLine() const
{
    return serializeDoc(*this, /*pretty=*/false);
}

void
ResultsDoc::save(const std::string &path) const
{
    writeFile(path, "results", toJson());
}

ResultsDoc
ResultsDoc::fromJson(const std::string &text)
{
    json::Value root = json::parse(text);
    if (!root.isObject())
        throw std::runtime_error("results: document is not an object");

    ResultsDoc doc;
    doc.schemaVersion =
        static_cast<int>(root.numberOr("schema_version", -1));
    if (doc.schemaVersion != kSchemaVersion)
        throw std::runtime_error(
            "results: unsupported schema_version " +
            std::to_string(doc.schemaVersion) + " (expected " +
            std::to_string(kSchemaVersion) + ")");
    doc.bench = root.stringOr("bench", "");

    if (const json::Value *scale = root.find("scale")) {
        doc.warmup = static_cast<Cycle>(scale->numberOr("warmup", 0));
        doc.measure = static_cast<Cycle>(scale->numberOr("measure", 0));
        doc.workloadsPerCategory = static_cast<int>(
            scale->numberOr("workloads_per_category", 0));
    }

    if (const json::Value *run = root.find("run")) {
        doc.wallSeconds = run->numberOr("wall_seconds", 0.0);
        doc.hostThreads = static_cast<int>(run->numberOr("host_threads", 0));
        doc.buildType = run->stringOr("build_type", "");
        doc.jobsPerSec = run->numberOr("jobs_per_sec", 0.0);
        doc.cacheHitRate = run->numberOr("cache_hit_rate", -1.0);
        if (const json::Value *cs = run->find("cycle_skip")) {
            if (cs->kind == json::Value::Kind::Bool)
                doc.cycleSkip = cs->boolean ? 1 : 0;
        }
        if (const json::Value *prof = run->find("profile")) {
            if (prof->isObject())
                for (const auto &[k, v] : prof->object)
                    if (v.isNumber())
                        doc.profileMetrics.emplace_back(k, v.number);
        }
    }

    const json::Value *rows = root.find("rows");
    if (!rows || !rows->isArray())
        throw std::runtime_error("results: missing rows array");
    for (const json::Value &rowVal : rows->array) {
        if (!rowVal.isObject())
            throw std::runtime_error("results: row is not an object");
        Row r;
        r.series = rowVal.stringOr("series", "");
        r.point = rowVal.stringOr("point", "");
        if (const json::Value *metrics = rowVal.find("metrics")) {
            for (const auto &[k, v] : metrics->object) {
                if (v.isNumber())
                    r.metrics.emplace_back(k, v.number);
                else if (v.isNull())
                    r.metrics.emplace_back(
                        k, std::numeric_limits<double>::quiet_NaN());
                else
                    throw std::runtime_error(
                        "results: metric '" + k + "' is not a number");
            }
        }
        doc.rows.push_back(std::move(r));
    }
    return doc;
}

ResultsDoc
ResultsDoc::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("results: cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    try {
        return fromJson(text.str());
    } catch (const std::runtime_error &e) {
        throw std::runtime_error(std::string(e.what()) + " in " + path);
    }
}

} // namespace tcm::sim::results
