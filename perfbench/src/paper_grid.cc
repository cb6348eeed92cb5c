/**
 * @file
 * paper-grid: the full default 308-run grid at default budgets, one
 * runSweep over a fresh shared WorkloadCache per pass, closed batch,
 * run order shuffled by the seed. The op is one run; its latency is
 * the time from the start of the sweep to that run's result. Set-up is the cache warm-up (compile
 * ref + train and profile train for all nine workloads, in parallel
 * over the same jobs); the timed phase is the sweep, whose stream
 * captures and replays are the bulk of the work.
 *
 * The traced run makes three passes: untraced with batched replay
 * (the default), untraced solo (batchReplay=false), and traced through
 * the runFn seam, which also runs solo. Tracing overhead is traced
 * minus untraced solo; the batching effect is solo minus batched.
 */

#include <mutex>

#include "grid.hh"
#include "workloads.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

namespace
{

constexpr std::uint64_t gridProfileInsts = 300'000;
constexpr std::uint64_t warmupRunIdBase = 1'000'000;

struct Sweep
{
    std::vector<rvp::ExperimentResult> results;
    rvp::SweepReport report;
    double setupSeconds = 0.0;
    rvp::WorkloadCacheStats cache;
};

class PaperGrid
{
  public:
    PaperGrid(const Options &opts, const ReferenceTable &refs)
        : opts_(opts), refs_(refs)
    {
        std::vector<GridEntry> grid = paperGrid();
        SeedRng rng(opts.seed);
        for (std::size_t i : permutation(grid.size(), rng)) {
            configs_.push_back(grid[i].config);
            ids_.push_back(grid[i].id());
        }
        for (const rvp::WorkloadSpec &spec : rvp::allWorkloads())
            workloads_.push_back(spec.name);
    }

    /**
     * One pass: fresh cache, warm-up, sweep. Checks every result. With
     * opMs, records each run's time to result: seconds from the start
     * of the sweep until runSweep hands the run back.
     */
    Sweep
    pass(Outcome &out, bool batch, Trace *trace,
         std::vector<double> *opMs = nullptr)
    {
        Sweep s;
        rvp::WorkloadCache cache;
        auto t0 = Clock::now();
        rvp::parallelFor(workloads_.size(), opts_.jobs, [&](std::size_t i) {
            tracedWarmup(cache, workloads_[i], gridProfileInsts, trace,
                         warmupRunIdBase + i);
        });
        s.setupSeconds = seconds(t0, Clock::now());

        rvp::SweepOptions so;
        so.jobs = opts_.jobs;
        so.progress = false;
        so.sharedCache = &cache;
        so.batchReplay = batch;
        if (trace) {
            so.runFn = [trace](const rvp::ExperimentConfig &config,
                               rvp::WorkloadCache &,
                               const rvp::RunContext &context) {
                return tracedExperiment(config, context, *trace,
                                        context.runIndex + 1);
            };
        }
        std::mutex opMutex;
        auto sweepStart = Clock::now();
        if (opMs) {
            so.onRunComplete = [&](std::size_t, const rvp::ExperimentResult &,
                                   double) {
                double ms = seconds(sweepStart, Clock::now()) * 1e3;
                std::lock_guard<std::mutex> lock(opMutex);
                opMs->push_back(ms);
            };
        }
        s.results = rvp::runSweep(configs_, so, &s.report);
        s.cache = cache.stats();
        for (std::size_t i = 0; i < s.results.size(); ++i)
            out.check(refs_.check(ids_[i], s.results[i]));
        return s;
    }

    static double
    kips(const Sweep &s)
    {
        double insts = 0.0;
        for (const rvp::ExperimentResult &r : s.results)
            insts += static_cast<double>(r.committed);
        return insts / s.report.wallSeconds / 1000.0;
    }

    Outcome
    untraced()
    {
        Outcome out;
        PassTimes times;
        auto start = Clock::now();
        double last = 0.0;
        do {
            auto passStart = Clock::now();
            double before = yardstickMs();
            resetPeakRss();
            std::vector<double> opMs;
            Sweep s = pass(out, true, nullptr, &opMs);
            times.rssMb.push_back(peakRssMb());
            double f = speedFactor(before, yardstickMs());
            times.addPass(s.report.wallSeconds, s.setupSeconds, kips(s), f);
            for (double ms : opMs)
                times.opMs.push_back(ms * f);
            last = seconds(passStart, Clock::now());
        } while (anotherPassFits(seconds(start, Clock::now()), last,
                                 opts_.seconds));
        setEndToEnd(out, times);
        return out;
    }

    Outcome
    traced()
    {
        Outcome out;
        Sweep batched = pass(out, true, nullptr);
        Sweep solo = pass(out, false, nullptr);

        Trace trace;
        auto t0 = Clock::now();
        Sweep tr = pass(out, false, &trace);
        double tracedWall = seconds(t0, Clock::now());

        // Fidelity: the traced body must reproduce the untraced run
        // exactly, not merely match the reference table.
        for (std::size_t i = 0; i < tr.results.size(); ++i) {
            bool same = resultDigest(tr.results[i]) ==
                        resultDigest(batched.results[i]);
            out.check(same ? "" : ids_[i] + ": traced digest differs "
                                            "from the untraced run");
        }

        double warmBusy = 0.0;
        for (const SpanRecord &span : trace.spans())
            if (span.name == "warmup")
                warmBusy += span.end - span.start;
        double runBusy = 0.0;
        for (double sec : tr.report.runSeconds)
            runBusy += sec;
        LayerInputs in;
        in.trace = &trace;
        in.lanes = opts_.jobs;
        in.tracedWall = tracedWall;
        in.idle = opts_.jobs * (tr.setupSeconds + tr.report.wallSeconds) -
                  warmBusy - runBusy;
        in.cache = tr.cache;
        in.profileInsts = gridProfileInsts;
        in.untracedWall = solo.setupSeconds + solo.report.wallSeconds;
        setLayers(out, in);

        std::uint64_t retries = 0;
        for (const rvp::ExperimentResult &r : tr.results)
            retries += r.retries;
        out.set("sim.retries", static_cast<double>(retries), "count");
        out.set("sim.batched_runs",
                static_cast<double>(batched.report.batchedRuns), "count");
        out.set("sim.batched_wall_s", batched.report.wallSeconds, "s");
        out.set("sim.solo_wall_s", solo.report.wallSeconds, "s");
        out.set("sim.batch_saved_s",
                solo.report.wallSeconds - batched.report.wallSeconds, "s");
        out.set("sim.traced_batching_off", 1.0, "flag");
        dumpSpans(opts_, trace);
        return out;
    }

  private:
    const Options &opts_;
    const ReferenceTable &refs_;
    std::vector<rvp::ExperimentConfig> configs_;
    std::vector<std::string> ids_;
    std::vector<std::string> workloads_;
};

} // namespace

Outcome
runPaperGrid(const Options &opts, const ReferenceTable &refs)
{
    PaperGrid grid(opts, refs);
    return opts.trace ? grid.traced() : grid.untraced();
}

} // namespace perfbench
