/**
 * @file
 * single-cold: 100 configs drawn by the seed, without replacement,
 * from the 308-run grid, each run alone and serially through uncached
 * runExperiment(config), exactly as `rvpsim` runs one experiment.
 * Closed loop, one caller: every run compiles, profiles and emulates
 * live. The op is one runExperiment call.
 *
 * The workload has no set-up of its own: every run is cold. setup_s is
 * the warm-up instead: a fixed small config (go, 50K instructions) run
 * cold twice before each pass, kept out of the latency sample. The
 * first of these is the process's first runExperiment call and pays
 * the one-time initialisation every `rvpsim` invocation pays.
 *
 * Passes repeat the same sample. wall_s is the wall of one pass built
 * from per-config medians across passes (the sum over configs of each
 * config's median latency), so a burst of host load during one pass
 * moves it less than a raw pass wall would.
 *
 * The traced run repeats the same 100 configs through
 * tracedExperiment over a fresh cache with stream replay disabled per
 * run, which does the same cold work as the uncached path.
 */

#include "grid.hh"
#include "metrics.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t sampleSize = 100;

void
accumulate(rvp::WorkloadCacheStats &sum, const rvp::WorkloadCacheStats &s)
{
    sum.compileHits += s.compileHits;
    sum.compileMisses += s.compileMisses;
    sum.profileHits += s.profileHits;
    sum.profileMisses += s.profileMisses;
}

class SingleCold
{
  public:
    SingleCold(const Options &opts, const ReferenceTable &refs)
        : opts_(opts), refs_(refs)
    {
        std::vector<GridEntry> grid = paperGrid();
        SeedRng rng(opts.seed);
        std::vector<std::size_t> order = permutation(grid.size(), rng);
        for (std::size_t k = 0; k < sampleSize; ++k) {
            configs_.push_back(grid[order[k]].config);
            ids_.push_back(grid[order[k]].id());
        }
    }

    /** One warm-up sample: a fixed small cold run. */
    static double
    warmup()
    {
        rvp::ExperimentConfig config;
        config.workload = "go";
        config.core.maxInsts = 50'000;
        config.profileInsts = 50'000;
        auto t0 = Clock::now();
        rvp::runExperiment(config);
        return seconds(t0, Clock::now());
    }

    struct Pass
    {
        std::vector<rvp::ExperimentResult> results;
        std::vector<double> opMs;
        std::vector<double> rssMb;
        /** Speed factor of each op (untraced passes only). */
        std::vector<double> opFactor;
        double wall = 0.0;
    };

    /**
     * Run the sample once; trace = null runs uncached runExperiment and
     * reads the yardstick around every group of ten ops.
     */
    Pass
    pass(Outcome &out, Trace *trace, rvp::WorkloadCacheStats *cacheSum)
    {
        constexpr std::size_t group = 10;
        Pass p;
        std::vector<double> yardstick;
        auto start = Clock::now();
        for (std::size_t i = 0; i < configs_.size(); ++i) {
            if (!trace && i % group == 0)
                yardstick.push_back(yardstickMs());
            resetPeakRss();
            auto t0 = Clock::now();
            rvp::ExperimentResult r;
            if (trace) {
                rvp::WorkloadCache cache(0);
                rvp::RunContext context;
                context.cache = &cache;
                r = tracedExperiment(configs_[i], context, *trace, i + 1);
                accumulate(*cacheSum, cache.stats());
            } else {
                r = rvp::runExperiment(configs_[i]);
            }
            p.opMs.push_back(seconds(t0, Clock::now()) * 1e3);
            p.rssMb.push_back(peakRssMb());
            out.check(refs_.check(ids_[i], r));
            p.results.push_back(std::move(r));
        }
        p.wall = seconds(start, Clock::now());
        if (!trace) {
            yardstick.push_back(yardstickMs());
            for (std::size_t i = 0; i < configs_.size(); ++i)
                p.opFactor.push_back(speedFactor(yardstick[i / group],
                                                 yardstick[i / group + 1]));
        }
        return p;
    }

    Outcome
    untraced()
    {
        Outcome out;
        PassTimes times;
        std::vector<std::vector<double>> perConfig(configs_.size());
        std::vector<std::vector<double>> perConfigRaw(configs_.size());
        double insts = 0.0;
        auto start = Clock::now();
        double last = 0.0;
        do {
            auto passStart = Clock::now();
            double before = yardstickMs();
            double warm[2] = {warmup(), warmup()};
            double f = speedFactor(before, yardstickMs());
            for (double w : warm)
                times.setup.push_back(w * f);
            Pass p = pass(out, nullptr, nullptr);
            for (std::size_t i = 0; i < configs_.size(); ++i) {
                perConfig[i].push_back(p.opMs[i] * p.opFactor[i]);
                perConfigRaw[i].push_back(p.opMs[i]);
                times.opMs.push_back(p.opMs[i] * p.opFactor[i]);
                times.factor.push_back(p.opFactor[i]);
            }
            times.rssMb.insert(times.rssMb.end(), p.rssMb.begin(),
                               p.rssMb.end());
            if (insts == 0.0)
                for (const rvp::ExperimentResult &r : p.results)
                    insts += static_cast<double>(r.committed);
            last = seconds(passStart, Clock::now());
        } while (anotherPassFits(seconds(start, Clock::now()), last,
                                 opts_.seconds));
        double wall = 0.0, rawWall = 0.0;
        for (std::size_t i = 0; i < configs_.size(); ++i) {
            wall += median(perConfig[i]) / 1e3;
            rawWall += median(perConfigRaw[i]) / 1e3;
        }
        times.wall.push_back(wall);
        times.rawWall.push_back(rawWall);
        times.kips.push_back(insts / wall / 1000.0);
        setEndToEnd(out, times);
        out.facts["passes"] = std::to_string(perConfig.front().size());
        return out;
    }

    Outcome
    traced()
    {
        Outcome out;
        warmup();
        Pass plain = pass(out, nullptr, nullptr);
        Trace trace;
        rvp::WorkloadCacheStats cacheSum;
        Pass tr = pass(out, &trace, &cacheSum);
        for (std::size_t i = 0; i < tr.results.size(); ++i) {
            bool same = resultDigest(tr.results[i]) ==
                        resultDigest(plain.results[i]);
            out.check(same ? "" : ids_[i] + ": traced digest differs "
                                            "from the untraced run");
        }
        LayerInputs in;
        in.trace = &trace;
        in.lanes = 1;
        in.tracedWall = tr.wall;
        in.cache = cacheSum;
        in.profileInsts = configs_.front().profileInsts;
        in.untracedWall = plain.wall;
        setLayers(out, in);
        dumpSpans(opts_, trace);
        return out;
    }

  private:
    const Options &opts_;
    const ReferenceTable &refs_;
    std::vector<rvp::ExperimentConfig> configs_;
    std::vector<std::string> ids_;
};

} // namespace

Outcome
runSingleCold(const Options &opts, const ReferenceTable &refs)
{
    SingleCold cold(opts, refs);
    return opts.trace ? cold.traced() : cold.untraced();
}

} // namespace perfbench
