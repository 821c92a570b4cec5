/**
 * @file
 * Scheduler specification and construction.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sched/atlas.hpp"
#include "sched/bliss.hpp"
#include "sched/fqm.hpp"
#include "sched/ght.hpp"
#include "sched/parbs.hpp"
#include "sched/scheduler.hpp"
#include "sched/stfm.hpp"
#include "sched/tcm/tcm.hpp"
#include "sched/tournament.hpp"

namespace tcm::sched {

/** Which algorithm a SchedulerSpec names. */
enum class Algo
{
    FrFcfs,
    Fcfs,
    Fqm,
    Stfm,
    ParBs,
    Atlas,
    Tcm,
    FixedRank,
    Bliss,
    Ght,
    CpFrFcfs,
    Tournament,
};

/** Human-readable algorithm name. */
const char *algoName(Algo algo);

/**
 * A value-type description of a scheduler, so experiments can sweep
 * parameters and construct fresh policy instances per run.
 */
struct SchedulerSpec
{
    Algo algo = Algo::FrFcfs;
    FqmParams fqm;
    StfmParams stfm;
    ParBsParams parbs;
    AtlasParams atlas;
    TcmParams tcm;
    BlissParams bliss;
    GhtParams ght;
    TournamentParams tournament;
    std::vector<int> fixedRanks; //!< for Algo::FixedRank

    /**
     * Candidate algorithms for Algo::Tournament, built from this spec's
     * own per-algorithm parameter blocks (so scaleToRun scales the
     * candidates too). Restricted to non-marking, non-meta policies —
     * makeScheduler rejects PAR-BS (shadow batch marking would leak
     * into the controllers' marked tier), FixedRank, FRFCFS-CP (page
     * policy is fixed at construction) and nested tournaments.
     */
    std::vector<Algo> tournamentCandidates = {Algo::Tcm, Algo::Atlas,
                                              Algo::Bliss};

    /** @{ Convenience constructors with the paper's defaults. */
    static SchedulerSpec frfcfs();
    static SchedulerSpec fcfs();
    static SchedulerSpec fqmSpec();
    static SchedulerSpec stfmSpec();
    static SchedulerSpec parbsSpec();
    static SchedulerSpec atlasSpec();
    static SchedulerSpec tcmSpec();
    static SchedulerSpec fixedRank(std::vector<int> ranks);
    static SchedulerSpec blissSpec();
    static SchedulerSpec ghtSpec();
    static SchedulerSpec cpFrfcfsSpec();
    static SchedulerSpec tournamentSpec();
    /** @} */

    /**
     * Scale time-based parameters from the paper's 100M-cycle runs to a
     * run of @p totalCycles: TCM quantum = total/100, ATLAS quantum =
     * total/10, STFM interval = total/6, GHT interval = total/8,
     * tournament quantum = total/100 — all with sane floors. Only a
     * constant that still holds its paper default is rescaled, so a
     * value the caller set survives (one set equal to the default is
     * indistinguishable from it and scales too). ShuffleInterval,
     * ATLAS's aging threshold, BLISS's clearing interval and GHT's
     * rotation period are latency/locality/interference-scale constants
     * and are left alone.
     */
    void scaleToRun(Cycle totalCycles);

    /** Display name ("TCM", "ATLAS", ...). */
    const char *name() const { return algoName(algo); }
};

/**
 * Every factory-registered policy name, lowercase — the vocabulary of
 * specByName / makeScheduler(name) / `tools/sweep --schedulers` and the
 * population the conformance suite iterates. FixedRank is deliberately
 * absent: it needs a caller-supplied rank vector and exists only for
 * controlled experiments.
 */
const std::vector<std::string> &policyNames();

/** specByName result: a spec, or a structured error naming the valid
 *  vocabulary. */
struct SpecLookup
{
    bool ok = false;
    SchedulerSpec spec;
    std::string error; //!< set when !ok; lists every valid policy name
};

/** Spec (paper defaults) for a lowercase registered name. Unknown names
 *  return ok == false with an error message listing the vocabulary. */
SpecLookup specByName(const std::string &name);

/**
 * Construct a fresh policy instance from a spec. Throws
 * std::invalid_argument (message lists the valid policy names) on an
 * out-of-range algo, and on invalid tournament candidate lists.
 */
std::unique_ptr<SchedulerPolicy> makeScheduler(const SchedulerSpec &spec,
                                               std::uint64_t seed);

/**
 * Construct by registered name. On an unknown name returns nullptr and,
 * when @p error is non-null, stores a message listing every valid name.
 */
std::unique_ptr<SchedulerPolicy> makeScheduler(const std::string &name,
                                               std::uint64_t seed,
                                               std::string *error = nullptr);

} // namespace tcm::sched
