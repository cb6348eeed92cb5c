/**
 * @file
 * The three benchmark workloads and what they share: run options, the
 * outcome a run prints, and the per-layer metric assembly.
 *
 * Every workload runs as repeated passes: a set-up phase (timed as
 * setup_s), then a timed phase. Passes repeat until --seconds is used
 * up (at least one pass, and never a pass that would overrun the
 * budget by the length of the last one). wall_s, sim_kips and setup_s
 * are medians over passes; op latencies pool every op of every pass.
 * All host times are scaled to reference host speed by yardstick
 * readings taken around each pass (each group of ops on single-cold).
 * peak_rss_mb is the median, over sample windows (a pass; one op on
 * single-cold), of the process's peak resident set in that window.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "digest.hh"
#include "trace.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    /** Worker threads for paper-grid: min(4, nproc). */
    unsigned jobs = 1;
    /** Directory for span dumps and the service's store and socket. */
    std::string outDir = ".bench_out";
};

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What one benchmark run prints. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** False when an output could not be checked or a required
     *  sample count was not reached. */
    bool complete = true;
    std::vector<std::string> problems;   ///< first few failure reasons
    std::map<std::string, Metric> metrics;
    /** Free-form facts for the row line (counts, pass numbers). */
    std::map<std::string, std::string> facts;

    void set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = {value, unit};
    }
    /** Count one checked op; reason empty = it passed. */
    void check(const std::string &reason);
};

/**
 * Host-speed yardstick: milliseconds of a fixed kernel that uses no
 * simulator code (hash-map and ordered-map inserts, median of three).
 * On a shared host the speed of the whole machine drifts by up to ~1.7x
 * over minutes; the yardstick slows with it, less steeply.
 */
double yardstickMs();

/** Yardstick time that defines reference host speed. */
constexpr double yardstickRefMs = 3.0;

/** Scale for host time measured between two yardstick readings: it
 *  converts that time to reference host speed. */
inline double
speedFactor(double beforeMs, double afterMs)
{
    return 2.0 * yardstickRefMs / (beforeMs + afterMs);
}

/**
 * Per-pass samples of the end-to-end metrics. Host times are already
 * scaled to reference host speed; `rawWall` and `factor` keep what was
 * measured, for the row.
 */
struct PassTimes
{
    std::vector<double> wall;
    std::vector<double> setup;
    std::vector<double> kips;
    std::vector<double> opMs;
    /** Peak RSS of each sample window (resetPeakRss() .. now). */
    std::vector<double> rssMb;
    std::vector<double> rawWall;
    std::vector<double> factor;

    /** One pass's wall, set-up and rate, measured at speed factor f. */
    void
    addPass(double wallSeconds, double setupSeconds, double kipsRaw, double f)
    {
        wall.push_back(wallSeconds * f);
        setup.push_back(setupSeconds * f);
        kips.push_back(kipsRaw / f);
        rawWall.push_back(wallSeconds);
        factor.push_back(f);
    }
};

/** Fill the six end-to-end metrics from the pass samples. */
void setEndToEnd(Outcome &out, const PassTimes &times);

/** True while another pass of `lastPass` seconds fits the budget. */
bool anotherPassFits(double elapsed, double lastPass, double budget);

/** Inputs of the per-layer assembly that spans cannot supply. */
struct LayerInputs
{
    const Trace *trace = nullptr;
    /** Parallel lanes of the traced phase (threads or clients). */
    unsigned lanes = 1;
    /** Traced phase wall seconds (warm-up + timed). */
    double tracedWall = 0.0;
    /** Lane seconds no root span covered, as the scheduler saw it. */
    double idle = 0.0;
    rvp::WorkloadCacheStats cache;
    std::uint64_t profileInsts = 0;  ///< per profile build
    double untracedWall = 0.0;       ///< same phase, tracing off
};

/**
 * Every per-layer metric, zero where the workload does not touch the
 * layer. Workload-specific sim.* and service.* values are set by the
 * caller afterwards.
 */
void setLayers(Outcome &out, const LayerInputs &in);

/**
 * Start a new peak-RSS window: freed heap is returned to the kernel and
 * the kernel's high-water mark (VmHWM) is reset to the current resident
 * set. Where the reset is refused, windows silently widen to the
 * process lifetime.
 */
void resetPeakRss();

/** Peak resident set since the last resetPeakRss(), MB (10^6 B). */
double peakRssMb();


Outcome runPaperGrid(const Options &opts, const ReferenceTable &refs);
Outcome runSingleCold(const Options &opts, const ReferenceTable &refs);
Outcome runServiceMixed(const Options &opts, const ReferenceTable &refs);

/** Write the trace's spans to <outDir>/spans-<workload>-<seed>.jsonl. */
void dumpSpans(const Options &opts, const Trace &trace);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
