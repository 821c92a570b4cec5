/**
 * @file
 * The three-axis characterization of a thread's memory access behaviour.
 */

#pragma once

#include <string>
#include <tuple>

#include "common/types.hpp"

namespace tcm::workload {

/**
 * A thread's memory behaviour as the paper defines it (Section 2.1):
 * memory intensity (MPKI), row-buffer locality (RBL in [0,1]) and
 * bank-level parallelism (BLP in banks). The synthetic trace generator
 * turns a profile into an instruction stream whose *measured* MPKI/RBL/BLP
 * match these targets (verified by `paper table4`).
 */
struct ThreadProfile
{
    std::string name = "synthetic";
    double mpki = 1.0;          //!< L2 misses per kilo-instruction
    double rbl = 0.5;           //!< row-buffer locality, fraction in [0,1]
    double blp = 1.0;           //!< avg banks with outstanding requests
    double writeFraction = 0.25; //!< writebacks per read miss
    int weight = 1;             //!< OS-assigned thread weight (Section 3.6)

    /** The paper's intensity classification: MPKI >= 1 is intensive. */
    bool memoryIntensive() const { return mpki >= 1.0; }

    /**
     * All fields that determine this thread's behaviour when running
     * *alone* — the memoization key of sim::AloneIpcCache. The synthetic
     * trace stream is a function of exactly (mpki, rbl, blp,
     * writeFraction) plus the DRAM geometry and seed, which the cache
     * holds per instance. Deliberately excluded: `weight` (a scheduler
     * input that is meaningless without competitors; the alone run
     * forces it to 1) and `name` (a label with no behavioural effect).
     *
     * If you add a behaviour-affecting field to ThreadProfile, it MUST
     * be added here, or distinct profiles will alias one cache entry
     * and corrupt every slowdown metric. tests/test_sim.cpp's
     * AloneCache.KeyCoversEveryBehaviorField audits this field by field.
     */
    using AloneBehaviorKey = std::tuple<double, double, double, double>;
    AloneBehaviorKey
    aloneBehaviorKey() const
    {
        return {mpki, rbl, blp, writeFraction};
    }
};

} // namespace tcm::workload
