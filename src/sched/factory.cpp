#include "sched/factory.hpp"

#include <algorithm>
#include <stdexcept>

#include "sched/cp_frfcfs.hpp"
#include "sched/fcfs.hpp"
#include "sched/fixed_rank.hpp"
#include "sched/frfcfs.hpp"

namespace tcm::sched {

namespace {

/** The registered (name, algo) vocabulary, in presentation order. */
struct NamedAlgo
{
    const char *name;
    Algo algo;
};

constexpr NamedAlgo kRegistry[] = {
    {"frfcfs", Algo::FrFcfs},   {"fcfs", Algo::Fcfs},
    {"fqm", Algo::Fqm},         {"stfm", Algo::Stfm},
    {"parbs", Algo::ParBs},     {"atlas", Algo::Atlas},
    {"tcm", Algo::Tcm},         {"bliss", Algo::Bliss},
    {"ght", Algo::Ght},         {"frfcfs-cp", Algo::CpFrFcfs},
    {"tournament", Algo::Tournament},
};

std::string
vocabulary()
{
    std::string names;
    for (const NamedAlgo &entry : kRegistry) {
        if (!names.empty())
            names += ", ";
        names += entry.name;
    }
    return names;
}

} // namespace

const char *
algoName(Algo algo)
{
    switch (algo) {
      case Algo::FrFcfs: return "FR-FCFS";
      case Algo::Fcfs: return "FCFS";
      case Algo::Fqm: return "FQM";
      case Algo::Stfm: return "STFM";
      case Algo::ParBs: return "PAR-BS";
      case Algo::Atlas: return "ATLAS";
      case Algo::Tcm: return "TCM";
      case Algo::FixedRank: return "FixedRank";
      case Algo::Bliss: return "BLISS";
      case Algo::Ght: return "GHT";
      case Algo::CpFrFcfs: return "FRFCFS-CP";
      case Algo::Tournament: return "Tournament";
    }
    return "?";
}

SchedulerSpec
SchedulerSpec::frfcfs()
{
    return SchedulerSpec{};
}

SchedulerSpec
SchedulerSpec::fcfs()
{
    SchedulerSpec s;
    s.algo = Algo::Fcfs;
    return s;
}

SchedulerSpec
SchedulerSpec::fqmSpec()
{
    SchedulerSpec s;
    s.algo = Algo::Fqm;
    return s;
}

SchedulerSpec
SchedulerSpec::stfmSpec()
{
    SchedulerSpec s;
    s.algo = Algo::Stfm;
    return s;
}

SchedulerSpec
SchedulerSpec::parbsSpec()
{
    SchedulerSpec s;
    s.algo = Algo::ParBs;
    return s;
}

SchedulerSpec
SchedulerSpec::atlasSpec()
{
    SchedulerSpec s;
    s.algo = Algo::Atlas;
    return s;
}

SchedulerSpec
SchedulerSpec::tcmSpec()
{
    SchedulerSpec s;
    s.algo = Algo::Tcm;
    return s;
}

SchedulerSpec
SchedulerSpec::fixedRank(std::vector<int> ranks)
{
    SchedulerSpec s;
    s.algo = Algo::FixedRank;
    s.fixedRanks = std::move(ranks);
    return s;
}

SchedulerSpec
SchedulerSpec::blissSpec()
{
    SchedulerSpec s;
    s.algo = Algo::Bliss;
    return s;
}

SchedulerSpec
SchedulerSpec::ghtSpec()
{
    SchedulerSpec s;
    s.algo = Algo::Ght;
    return s;
}

SchedulerSpec
SchedulerSpec::cpFrfcfsSpec()
{
    SchedulerSpec s;
    s.algo = Algo::CpFrFcfs;
    return s;
}

SchedulerSpec
SchedulerSpec::tournamentSpec()
{
    SchedulerSpec s;
    s.algo = Algo::Tournament;
    return s;
}

void
SchedulerSpec::scaleToRun(Cycle totalCycles)
{
    // Rescale a constant only while it holds its paper default, so a
    // value the caller set (fig6's ATLAS quantum sweep) reaches the
    // policy unchanged.
    auto scale = [](Cycle &value, Cycle paperValue, Cycle scaled) {
        if (value == paperValue)
            value = scaled;
    };
    // The TCM quantum must hold several full insertion-shuffle rotations
    // (2N steps of ShuffleInterval cycles each: ~38K cycles at 24
    // threads), so its floor is higher than a pure 1/100 scaling.
    scale(tcm.quantum, TcmParams{}.quantum,
          std::max<Cycle>(50'000, totalCycles / 100));
    scale(atlas.quantum, AtlasParams{}.quantum,
          std::max<Cycle>(20'000, totalCycles / 10));
    // ATLAS's aging threshold is an absolute starvation timeout tied to
    // DRAM service latencies, not to how long the experiment runs, so it
    // is deliberately NOT scaled here. Same for BLISS's clearing
    // interval (an interference time constant) and GHT's rotation
    // period (a locality-scale constant).
    scale(stfm.intervalLength, StfmParams{}.intervalLength,
          std::max<Cycle>(50'000, totalCycles / 6));
    scale(ght.interval, GhtParams{}.interval,
          std::max<Cycle>(50'000, totalCycles / 8));
    // The tournament quantum matches TCM's scaling so one exploration
    // rotation plus an exploitation stretch fits in every run.
    scale(tournament.quantum, TournamentParams{}.quantum,
          std::max<Cycle>(50'000, totalCycles / 100));
}

const std::vector<std::string> &
policyNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const NamedAlgo &entry : kRegistry)
            v.emplace_back(entry.name);
        return v;
    }();
    return names;
}

SpecLookup
specByName(const std::string &name)
{
    SpecLookup out;
    for (const NamedAlgo &entry : kRegistry) {
        if (name == entry.name) {
            out.ok = true;
            out.spec.algo = entry.algo;
            return out;
        }
    }
    out.error = "unknown scheduler '" + name +
                "'; valid names: " + vocabulary();
    return out;
}

std::unique_ptr<SchedulerPolicy>
makeScheduler(const SchedulerSpec &spec, std::uint64_t seed)
{
    switch (spec.algo) {
      case Algo::FrFcfs:
        return std::make_unique<FrFcfs>();
      case Algo::Fcfs:
        return std::make_unique<Fcfs>();
      case Algo::Fqm:
        return std::make_unique<Fqm>(spec.fqm);
      case Algo::Stfm:
        return std::make_unique<Stfm>(spec.stfm);
      case Algo::ParBs:
        return std::make_unique<ParBs>(spec.parbs);
      case Algo::Atlas:
        return std::make_unique<Atlas>(spec.atlas);
      case Algo::Tcm:
        return std::make_unique<Tcm>(spec.tcm, seed);
      case Algo::FixedRank:
        return std::make_unique<FixedRank>(spec.fixedRanks);
      case Algo::Bliss:
        return std::make_unique<Bliss>(spec.bliss);
      case Algo::Ght:
        return std::make_unique<Ght>(spec.ght);
      case Algo::CpFrFcfs:
        return std::make_unique<CpFrFcfs>();
      case Algo::Tournament: {
        if (spec.tournamentCandidates.empty())
            throw std::invalid_argument(
                "tournament needs at least one candidate");
        std::vector<std::unique_ptr<SchedulerPolicy>> candidates;
        for (Algo candidate : spec.tournamentCandidates) {
            switch (candidate) {
              case Algo::ParBs:
              case Algo::FixedRank:
              case Algo::CpFrFcfs:
              case Algo::Tournament:
                // PAR-BS would mark requests while shadowed (leaking
                // into the controllers' marked tier), FixedRank has no
                // default ranks, FRFCFS-CP's page policy is fixed at
                // construction, and nesting tournaments is pointless.
                throw std::invalid_argument(
                    std::string("invalid tournament candidate '") +
                    algoName(candidate) + "'");
              default:
                break;
            }
            SchedulerSpec sub = spec;
            sub.algo = candidate;
            candidates.push_back(makeScheduler(sub, seed));
        }
        return std::make_unique<Tournament>(std::move(candidates),
                                            spec.tournament);
      }
    }
    throw std::invalid_argument(
        "unknown scheduler algorithm; valid names: " + vocabulary());
}

std::unique_ptr<SchedulerPolicy>
makeScheduler(const std::string &name, std::uint64_t seed,
              std::string *error)
{
    SpecLookup lookup = specByName(name);
    if (!lookup.ok) {
        if (error != nullptr)
            *error = lookup.error;
        return nullptr;
    }
    return makeScheduler(lookup.spec, seed);
}

} // namespace tcm::sched
