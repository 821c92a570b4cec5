#include "sim/claims.hpp"

#include <cmath>
#include <limits>

#include "common/numfmt.hpp"

namespace tcm::sim::claims {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** NaN-aware equality for diff(): null metrics compare equal. */
bool
withinTolerance(double fresh, double base, double relTol, double absTol)
{
    if (std::isnan(fresh) && std::isnan(base))
        return true;
    if (std::isnan(fresh) != std::isnan(base))
        return false;
    double bound = std::max(absTol, relTol * std::fabs(base));
    return std::fabs(fresh - base) <= bound;
}

std::string
flatKey(const results::ResultsDoc &doc, const results::Row &row,
        const std::string &metric)
{
    return ResultSet::key(doc.bench, row.series, row.point, metric);
}

} // namespace

void
ResultSet::add(const results::ResultsDoc &doc)
{
    for (const results::Row &row : doc.rows)
        for (const auto &[metric, value] : row.metrics)
            values_[key(doc.bench, row.series, row.point, metric)] = value;
}

void
ResultSet::set(const std::string &key, double value)
{
    values_[key] = value;
}

const double *
ResultSet::find(const std::string &key) const
{
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
}

std::string
ResultSet::key(const std::string &bench, const std::string &series,
               const std::string &point, const std::string &metric)
{
    std::string k = bench + "/" + series;
    if (!point.empty())
        k += "@" + point;
    return k + "/" + metric;
}

Claim
Claim::atLeast(std::string id, std::string description, std::string subject,
               std::vector<std::string> references, double epsilon)
{
    Claim c;
    c.id = std::move(id);
    c.description = std::move(description);
    c.kind = Kind::AtLeast;
    c.subject = std::move(subject);
    c.references = std::move(references);
    c.epsilon = epsilon;
    return c;
}

Claim
Claim::atMost(std::string id, std::string description, std::string subject,
              std::vector<std::string> references, double epsilon)
{
    Claim c = atLeast(std::move(id), std::move(description),
                      std::move(subject), std::move(references), epsilon);
    c.kind = Kind::AtMost;
    return c;
}

Claim
Claim::ratioAtLeast(std::string id, std::string description,
                    std::string subject,
                    std::vector<std::string> references, double factor)
{
    Claim c = atLeast(std::move(id), std::move(description),
                      std::move(subject), std::move(references));
    c.kind = Kind::RatioAtLeast;
    c.factor = factor;
    return c;
}

Claim
Claim::ratioAtMost(std::string id, std::string description,
                   std::string subject,
                   std::vector<std::string> references, double factor)
{
    Claim c = ratioAtLeast(std::move(id), std::move(description),
                           std::move(subject), std::move(references),
                           factor);
    c.kind = Kind::RatioAtMost;
    return c;
}

Claim
Claim::band(std::string id, std::string description, std::string subject,
            double lo, double hi)
{
    Claim c;
    c.id = std::move(id);
    c.description = std::move(description);
    c.kind = Kind::Band;
    c.subject = std::move(subject);
    c.lo = lo;
    c.hi = hi;
    return c;
}

Outcome
evaluate(const Claim &claim, const ResultSet &set)
{
    Outcome out;
    out.id = claim.id;
    out.margin = kNaN;

    const double *subject = set.find(claim.subject);
    if (!subject) {
        out.status = Status::Missing;
        out.detail = "missing key: " + claim.subject;
        return out;
    }

    if (claim.kind == Kind::Band) {
        double slack = std::min(*subject - claim.lo, claim.hi - *subject);
        out.margin = slack;
        out.status = slack >= 0 ? Status::Pass : Status::Fail;
        out.detail = formatDouble(claim.lo) + " <= " +
                     formatDouble(*subject) + " <= " +
                     formatDouble(claim.hi);
        return out;
    }

    // Relational kinds: the claim must hold against EVERY reference;
    // report the tightest one.
    double worstSlack = std::numeric_limits<double>::infinity();
    std::string worstDetail;
    for (const std::string &refKey : claim.references) {
        const double *ref = set.find(refKey);
        if (!ref) {
            out.status = Status::Missing;
            out.detail = "missing key: " + refKey;
            return out;
        }
        double slack = 0.0;
        std::string rel;
        switch (claim.kind) {
          case Kind::AtLeast:
            slack = *subject - (*ref - claim.epsilon);
            rel = formatDouble(*subject) + " >= " + formatDouble(*ref) +
                  " - " + formatDouble(claim.epsilon);
            break;
          case Kind::AtMost:
            slack = (*ref + claim.epsilon) - *subject;
            rel = formatDouble(*subject) + " <= " + formatDouble(*ref) +
                  " + " + formatDouble(claim.epsilon);
            break;
          case Kind::RatioAtLeast:
            slack = *subject - claim.factor * *ref;
            rel = formatDouble(*subject) + " >= " +
                  formatDouble(claim.factor) + " * " + formatDouble(*ref);
            break;
          case Kind::RatioAtMost:
            slack = claim.factor * *ref - *subject;
            rel = formatDouble(*subject) + " <= " +
                  formatDouble(claim.factor) + " * " + formatDouble(*ref);
            break;
          case Kind::Band: break; // handled above
        }
        if (std::isnan(slack) || slack < worstSlack) {
            worstSlack = slack;
            worstDetail = rel + " [" + refKey + "]";
            if (std::isnan(slack))
                break;
        }
    }
    if (claim.references.empty()) {
        out.status = Status::Missing;
        out.detail = "claim has no references";
        return out;
    }
    out.margin = worstSlack;
    // A NaN subject or reference (an unmeasured metric) can never
    // satisfy a relation: NaN slack fails.
    out.status = worstSlack >= 0 ? Status::Pass : Status::Fail;
    out.detail = worstDetail;
    return out;
}

std::vector<Outcome>
evaluateAll(const std::vector<Claim> &registry, const ResultSet &set)
{
    std::vector<Outcome> outcomes;
    outcomes.reserve(registry.size());
    for (const Claim &claim : registry)
        outcomes.push_back(evaluate(claim, set));
    return outcomes;
}

int
failureCount(const std::vector<Outcome> &outcomes)
{
    int failures = 0;
    for (const Outcome &o : outcomes)
        if (o.status != Status::Pass)
            ++failures;
    return failures;
}

void
printVerdictTable(const std::vector<Claim> &registry,
                  const std::vector<Outcome> &outcomes, std::FILE *out)
{
    std::fprintf(out, "%-7s %-34s %s\n", "verdict", "claim",
                 "measured vs bound");
    std::fprintf(out, "%-7s %-34s %s\n", "-------", std::string(34, '-').c_str(),
                 "-----------------");
    int pass = 0, fail = 0, missing = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const Outcome &o = outcomes[i];
        const char *verdict = "PASS";
        if (o.status == Status::Fail) {
            verdict = "FAIL";
            ++fail;
        } else if (o.status == Status::Missing) {
            verdict = "MISS";
            ++missing;
        } else {
            ++pass;
        }
        std::fprintf(out, "%-7s %-34s %s\n", verdict, o.id.c_str(),
                     o.detail.c_str());
        if (o.status != Status::Pass && i < registry.size())
            std::fprintf(out, "        `- %s\n",
                         registry[i].description.c_str());
    }
    std::fprintf(out,
                 "\n%zu claim(s): %d passed, %d failed, %d missing key\n",
                 outcomes.size(), pass, fail, missing);
}

std::vector<std::string>
diff(const results::ResultsDoc &fresh, const results::ResultsDoc &baseline,
     double relTol, double absTol)
{
    std::vector<std::string> lines;

    if (fresh.bench != baseline.bench)
        lines.push_back("bench name: fresh '" + fresh.bench +
                        "' vs baseline '" + baseline.bench + "'");
    if (fresh.warmup != baseline.warmup ||
        fresh.measure != baseline.measure ||
        fresh.workloadsPerCategory != baseline.workloadsPerCategory)
        lines.push_back(
            "scale mismatch: fresh " +
            std::to_string(static_cast<unsigned long long>(fresh.warmup)) +
            "/" +
            std::to_string(static_cast<unsigned long long>(fresh.measure)) +
            "/" + std::to_string(fresh.workloadsPerCategory) +
            " vs baseline " +
            std::to_string(
                static_cast<unsigned long long>(baseline.warmup)) +
            "/" +
            std::to_string(
                static_cast<unsigned long long>(baseline.measure)) +
            "/" + std::to_string(baseline.workloadsPerCategory));

    // Baseline -> fresh: every golden metric must still exist and match.
    for (const results::Row &row : baseline.rows) {
        for (const auto &[metric, baseVal] : row.metrics) {
            const double *freshVal =
                fresh.find(row.series, row.point, metric);
            if (!freshVal) {
                lines.push_back("missing in fresh results: " +
                                flatKey(baseline, row, metric));
            } else if (!withinTolerance(*freshVal, baseVal, relTol,
                                        absTol)) {
                lines.push_back(
                    flatKey(baseline, row, metric) + ": fresh " +
                    formatDouble(*freshVal) + " vs baseline " +
                    formatDouble(baseVal) + " (tol max(" +
                    formatDouble(absTol) + ", " + formatDouble(relTol) +
                    "*|base|))");
            }
        }
    }

    // Fresh -> baseline: new metrics must be regolded, not slip past.
    for (const results::Row &row : fresh.rows)
        for (const auto &[metric, value] : row.metrics)
            if (!baseline.find(row.series, row.point, metric))
                lines.push_back("not in baseline (regold?): " +
                                flatKey(fresh, row, metric));

    return lines;
}

// ---------------------------------------------------------------------------
// The registered paper claims
// ---------------------------------------------------------------------------

namespace {

std::string
fig4Key(const std::string &scheduler, const std::string &metric)
{
    return ResultSet::key("fig4", scheduler, "", metric);
}

std::string
zooKey(const std::string &scheduler, const std::string &metric)
{
    return ResultSet::key("zoo", scheduler, "", metric);
}

} // namespace

std::vector<Claim>
paperClaims()
{
    std::vector<Claim> claims;

    const std::vector<std::string> kPriorsWs = {
        fig4Key("FR-FCFS", "ws"), fig4Key("STFM", "ws"),
        fig4Key("PAR-BS", "ws")};
    const std::vector<std::string> kPriorsMs = {
        fig4Key("FR-FCFS", "ms"), fig4Key("STFM", "ms"),
        fig4Key("ATLAS", "ms")};

    // -- Figure 4: the throughput/fairness Pareto frontier ------------------
    claims.push_back(Claim::atLeast(
        "fig4.atlas_ws_leader",
        "ATLAS has the highest weighted speedup of all five schedulers "
        "(paper Fig. 4: best prior throughput, TCM within a few %)",
        fig4Key("ATLAS", "ws"),
        {fig4Key("FR-FCFS", "ws"), fig4Key("STFM", "ws"),
         fig4Key("PAR-BS", "ws"), fig4Key("TCM", "ws")},
        /*epsilon=*/0.0));
    claims.push_back(Claim::atLeast(
        "fig4.tcm_ws_vs_nonatlas",
        "TCM outperforms every non-ATLAS baseline on weighted speedup "
        "(paper Fig. 4: +7.6% over PAR-BS)",
        fig4Key("TCM", "ws"), kPriorsWs, /*epsilon=*/0.0));
    claims.push_back(Claim::ratioAtLeast(
        "fig4.tcm_ws_near_atlas",
        "TCM's weighted speedup stays within 10% of ATLAS's "
        "(paper Fig. 4: TCM +4.6% over ATLAS; ours trails slightly)",
        fig4Key("TCM", "ws"), {fig4Key("ATLAS", "ws")}, /*factor=*/0.90));
    claims.push_back(Claim::ratioAtMost(
        "fig4.tcm_ms_vs_atlas",
        "TCM's maximum slowdown is at most 0.85x ATLAS's "
        "(paper Fig. 4: -38.6%)",
        fig4Key("TCM", "ms"), {fig4Key("ATLAS", "ms")}, /*factor=*/0.85));
    claims.push_back(Claim::atMost(
        "fig4.parbs_ms_most_fair",
        "PAR-BS is (within 0.5) the most fair prior scheduler "
        "(paper Fig. 1/4: PAR-BS most fair; FR-FCFS runs it close here)",
        fig4Key("PAR-BS", "ms"), kPriorsMs, /*epsilon=*/0.5));
    claims.push_back(Claim::ratioAtLeast(
        "fig4.tcm_hs_floor",
        "TCM's harmonic speedup is within 12% of every baseline's "
        "(fairness-weighted throughput does not collapse)",
        fig4Key("TCM", "hs"),
        {fig4Key("FR-FCFS", "hs"), fig4Key("STFM", "hs"),
         fig4Key("PAR-BS", "hs"), fig4Key("ATLAS", "hs")},
        /*factor=*/0.88));

    // -- Table 4: synthetic clone calibration bands -------------------------
    claims.push_back(Claim::band(
        "table4.worst_mpki_err",
        "Every clone's measured alone-MPKI lands within 20% of its paper "
        "target (relative error is noisy for near-zero-MPKI clones)",
        ResultSet::key("table4", "worst", "", "mpki_err_pct"), 0.0, 20.0));
    claims.push_back(Claim::band(
        "table4.worst_rbl_err",
        "Every clone's measured row-buffer locality is within 0.15 of "
        "its target",
        ResultSet::key("table4", "worst", "", "rbl_err"), 0.0, 0.15));
    claims.push_back(Claim::band(
        "table4.worst_blp_err",
        "Clone bank-level parallelism tracks its target within the "
        "documented window/DDR2 BLP ceiling (EXPERIMENTS.md deviation #2)",
        ResultSet::key("table4", "worst", "", "blp_err"), 0.0, 2.5));

    // -- Table 6: shuffling-algorithm fairness ------------------------------
    // Bounds encode this reproduction's documented deviation: random
    // shuffling, not insertion/dynamic, is the most fair at these run
    // lengths (EXPERIMENTS.md Table 6 note). The stable shape is
    // "round-robin is clearly worse than random" and "random has far the
    // lowest variance".
    const std::string kRrAvg =
        ResultSet::key("table6", "round-robin", "", "ms_avg");
    const std::string kRrVar =
        ResultSet::key("table6", "round-robin", "", "ms_var");
    const std::string kRandAvg =
        ResultSet::key("table6", "random", "", "ms_avg");
    const std::string kDynAvg =
        ResultSet::key("table6", "TCM (dynamic)", "", "ms_avg");
    claims.push_back(Claim::atMost(
        "table6.random_most_fair",
        "Random shuffling has the lowest average maximum slowdown of all "
        "shuffling variants (our substrate's deviation from Table 6)",
        kRandAvg,
        {kRrAvg, ResultSet::key("table6", "insertion", "", "ms_avg"),
         ResultSet::key("table6", "insertion(literal)", "", "ms_avg"),
         kDynAvg,
         ResultSet::key("table6", "TCM (dyn,literal)", "", "ms_avg")},
        /*epsilon=*/0.5));
    claims.push_back(Claim::ratioAtLeast(
        "table6.roundrobin_vs_random",
        "Round-robin shuffling is at least 15% less fair than random "
        "(paper Table 6 direction: 5.58 vs 5.13)",
        kRrAvg, {kRandAvg}, /*factor=*/1.15));
    claims.push_back(Claim::ratioAtMost(
        "table6.random_var_vs_roundrobin",
        "Random shuffling's MS variance is well below round-robin's "
        "(paper Table 6 direction: shuffling evens out slowdowns)",
        ResultSet::key("table6", "random", "", "ms_var"), {kRrVar},
        /*factor=*/0.60));
    claims.push_back(Claim::ratioAtMost(
        "table6.dynamic_bounded",
        "Dynamic (TCM) shuffling stays within 25% of round-robin's "
        "average MS (it does not beat random here; EXPERIMENTS.md note)",
        kDynAvg, {kRrAvg}, /*factor=*/1.25));
    claims.push_back(Claim::ratioAtMost(
        "table6.insertion_reading",
        "The prose-consistent insertion reading stays within 25% of the "
        "literal Algorithm 2 reading (nicestAtTop ablation)",
        ResultSet::key("table6", "insertion", "", "ms_avg"),
        {ResultSet::key("table6", "insertion(literal)", "", "ms_avg")},
        /*factor=*/1.25));

    // -- Scheduler zoo: championship ports vs the paper's frontier ----------
    // The zoo grid runs on the exact fig4 population, so these pin the
    // ported policies' fairness/throughput positions relative to TCM's
    // frontier point. Measured at both blessed scales (ci 4/cat and
    // default 8/cat): BLISS trails TCM's WS by ~8-9% while cutting MS by
    // ~35%; GHT trails WS by ~6% at 10-22% lower MS; Tournament tracks
    // TCM's WS within ~1% at lower MS; FRFCFS-CP matches FR-FCFS.
    claims.push_back(Claim::ratioAtMost(
        "zoo.bliss_fairer_than_tcm",
        "BLISS's maximum slowdown is at most 0.80x TCM's (blacklisting "
        "caps streak-driven interference harder than clustering)",
        zooKey("BLISS", "ms"), {zooKey("TCM", "ms")}, /*factor=*/0.80));
    claims.push_back(Claim::ratioAtLeast(
        "zoo.bliss_ws_near_tcm",
        "BLISS's weighted speedup stays within 15% of TCM's "
        "(BLISS paper: frontier-competitive with far simpler hardware)",
        zooKey("BLISS", "ws"), {zooKey("TCM", "ws")}, /*factor=*/0.85));
    claims.push_back(Claim::ratioAtLeast(
        "zoo.ght_ws_near_tcm",
        "GHT's weighted speedup stays within 12% of TCM's (read-history "
        "boosting recovers most of the clustering throughput)",
        zooKey("GHT", "ws"), {zooKey("TCM", "ws")}, /*factor=*/0.88));
    claims.push_back(Claim::ratioAtMost(
        "zoo.ght_fairer_than_atlas",
        "GHT's maximum slowdown is at most 0.85x ATLAS's (light-thread "
        "boosting plus heavy-rank rotation avoids ATLAS's starvation)",
        zooKey("GHT", "ms"), {zooKey("ATLAS", "ms")}, /*factor=*/0.85));
    claims.push_back(Claim::ratioAtLeast(
        "zoo.tournament_ws_near_best",
        "Tournament's weighted speedup stays within 7% of every "
        "candidate's standalone run (online selection does not forfeit "
        "the best candidate's throughput)",
        zooKey("Tournament", "ws"),
        {zooKey("TCM", "ws"), zooKey("ATLAS", "ws"),
         zooKey("BLISS", "ws")},
        /*factor=*/0.93));
    claims.push_back(Claim::ratioAtMost(
        "zoo.tournament_ms_vs_tcm",
        "Tournament's maximum slowdown does not exceed TCM's by more "
        "than 5% (quanta spent on fair candidates pay a fairness "
        "dividend, not a penalty)",
        zooKey("Tournament", "ms"), {zooKey("TCM", "ms")},
        /*factor=*/1.05));
    claims.push_back(Claim::ratioAtLeast(
        "zoo.cp_frfcfs_tracks_frfcfs",
        "Close-page FR-FCFS holds at least 95% of open-page FR-FCFS's "
        "weighted speedup (smart auto-precharge rarely hurts on this "
        "mix)",
        zooKey("FRFCFS-CP", "ws"), {zooKey("FR-FCFS", "ws")},
        /*factor=*/0.95));

    // -- Infrastructure: interval sampling ----------------------------------
    // Subjects come from the paper::sampling probe (the fig4 grid run
    // full-length and interval-sampled; every `claims` run without
    // --sampled, bench_sampling standalone). The
    // deterministic claims (error bands, preserved orderings, cycle
    // ratio) are the sampling contract; the wall-clock claim is the
    // point of the feature. Error bands were pinned from both blessed
    // scales (ci 4/cat and default 8/cat; see EXPERIMENTS.md "Interval
    // sampling") with headroom over the worst observed values.
    const std::string kSamplingSummary = "sampling/summary";
    claims.push_back(Claim::band(
        "sampling.ws_err",
        "Sampled weighted speedup lands within 8% of the full-run value "
        "for every fig4 scheduler (measured: 4.75% at the default scale, "
        "3.41% at ci)",
        kSamplingSummary + "/ws_err_max", 0.0, 0.08));
    claims.push_back(Claim::band(
        "sampling.ms_err",
        "Sampled maximum slowdown stays within 2.25x of the full-run "
        "value for every bounded-slowdown fig4 scheduler (measured "
        "worst: 103% at the default scale, 73% at ci). MS tracks one "
        "worst-case thread through quantum-scale scheduling phases and "
        "the sampled span covers about one quantum, so this band only "
        "guards against catastrophic divergence; the quantitative MS "
        "conclusions — including ATLAS, whose divergent starvation "
        "statistic is excluded here — gate through sampling.ordering",
        kSamplingSummary + "/ms_err_max_bounded", 0.0, 1.25));
    claims.push_back(Claim::band(
        "sampling.ordering",
        "Every fig4.* claim reaches the same verdict on the sampled "
        "document — sampling preserves the paper's scheduler orderings",
        kSamplingSummary + "/fig4_claims_failed", 0.0, 0.0));
    claims.push_back(Claim::band(
        "sampling.cycle_ratio",
        "The sampled run simulates at least 4x fewer cycles than the "
        "full run it estimates (default: 72k vs 350k = 4.9x)",
        kSamplingSummary + "/cycle_ratio", 4.0, 1000.0));
    claims.push_back(Claim::band(
        "sampling.speedup",
        "The sampled fig4 grid is at least 4x faster in wall-clock than "
        "the full grid (the upper bound only guards against timing "
        "artifacts)",
        kSamplingSummary + "/speedup", 4.0, 50.0));

    // Fine-margin MS comparisons between bounded-slowdown schedulers
    // (Claim::fullHorizonOnly): every table6 claim (the shuffling study
    // is entirely MS-distribution statistics over 30 runs) and the
    // tournament-vs-TCM 5% MS bound. Everything else — all WS/HS claims
    // and the coarse MS orderings (TCM vs ATLAS at 0.85x, BLISS vs TCM
    // at 0.8x) — must also hold on interval-sampled runs.
    for (Claim &c : claims)
        if (c.id.rfind("table6.", 0) == 0 ||
            c.id == "zoo.tournament_ms_vs_tcm")
            c.fullHorizonOnly = true;

    return claims;
}

} // namespace tcm::sim::claims
