/**
 * @file
 * Whole-system configuration (the paper's Table 3).
 */

#pragma once

#include <cstdint>
#include <string>

#include "core/core.hpp"
#include "dram/protocol.hpp"
#include "dram/timing.hpp"
#include "mem/controller.hpp"
#include "prof/profiler.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/synthetic_trace.hpp"

namespace tcm::sim {

/**
 * The baseline 24-core, 4-controller CMP of Table 3, with every knob the
 * sensitivity studies (Table 8) vary.
 */
struct SystemConfig
{
    int numCores = 24;
    int numChannels = 4;

    /**
     * Registry name of the DRAM protocol `timing` was derived from
     * (kept in sync by selectProtocol; informational otherwise).
     */
    std::string protocol = "ddr2-800";
    dram::TimingParams timing = dram::TimingParams::ddr2_800();
    core::CoreParams core;
    mem::ControllerParams controller;

    /**
     * Re-derive `timing` from the named protocol preset ("ddr2-800",
     * "ddr3-1333", "ddr3-1600", "ddr4-2400"). Returns an empty string on
     * success, else the registry's structured error naming the valid
     * protocols (config untouched).
     */
    std::string selectProtocol(const std::string &name);

    /**
     * Models the Table 8 cache-size sweep: MPKI scales inversely-ish with
     * last-level cache size; a factor of 1.0 is the 512 KB baseline,
     * < 1.0 emulates a larger cache (fewer misses).
     */
    double mpkiScale = 1.0;

    /**
     * Attach an independent dram::ProtocolChecker to every channel: the
     * full command stream is audited against the DDR2 constraints,
     * re-derived from the trace alone (see Simulator::protocolChecker()
     * for the verdict). Off by default — auditing is opt-in so the fast
     * path stays observer-free.
     */
    bool protocolCheck = false;

    /**
     * In-run telemetry: interval time-series sampler, scheduler-decision
     * trace, request-lifecycle breakdowns. Off by default — the fast
     * path stays observer-free and results are bit-identical either way.
     */
    telemetry::TelemetryConfig telemetry;

    /**
     * Simulator self-profiling (tcm::prof): wall-clock phase timers,
     * cycle-skip horizon attribution, regime occupancy and scan
     * efficiency, reported through SystemReport and the
     * ResultsDoc run-provenance block. Off by default; when off,
     * sim::requestedProfile falls back to the TCMSIM_PROFILE environment
     * knob (filePrefix still names the run's file).
     * Purely an observer of the simulator — results are bit-identical
     * either way (tests/test_prof).
     */
    prof::ProfileConfig profile;

    /**
     * Event-horizon simulation kernel: Simulator::step advances time to
     * the earliest cycle any component reports it could act (controller
     * arrivals/refresh/issue, scheduler quantum or shuffle boundaries,
     * telemetry samples, core submissions), fast-forwarding cores in
     * closed form across the dead span. Bit-identical to the per-cycle
     * loop — every RunResult, golden command trace, and bench JSON is
     * unchanged — because every horizon is a conservative lower bound
     * and any cycle with possible cross-component effect is executed
     * normally. Off = the original per-cycle loop (kept as the
     * differential oracle; see tests/test_cycleskip.cpp).
     */
    bool cycleSkip = true;

    /** Geometry handed to the trace generator. */
    workload::Geometry geometry() const;
};

} // namespace tcm::sim
