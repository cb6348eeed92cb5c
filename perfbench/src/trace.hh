/**
 * @file
 * The traced run: spans recorded around calls into the simulator's
 * public API, plus sampling decorators for the two per-instruction
 * seams, all kept in memory and written out when the benchmark ends.
 *
 * A span has a name, a start and end (seconds since the trace began),
 * the index of its parent span on the same thread, and the id shared
 * by every span of one run. The run tree is
 *
 *     run -> prepare -> compile | profile
 *         -> stream  -> capture
 *         -> core
 *         -> finish
 *
 * plus `warmup` (compile/profile children) for cache warm-up and
 * `submit` for a service round trip. A span's self time is its
 * duration minus its children's; the children of a span always run
 * on its thread, strictly nested, so the subtraction is exact.
 *
 * Per-instruction calls (InstSource::step, ValuePredictor::onInst)
 * are far too frequent to span: timing each one doubles core time.
 * SampledSource and SampledPredictor forward every call and time one
 * in `every`, scaling the sampled time by calls / sampled calls. The
 * clock's own read cost, calibrated once, is subtracted from each
 * sample. The decorators forward every virtual the core uses, so a
 * decorated run's stats are identical to an undecorated one's.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/sweep.hh"
#include "stream/stream.hh"
#include "vp/predictor.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady_clock points. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Nanoseconds one steady_clock::now() pair adds to a timed interval
 *  (median of back-to-back reads, measured once per process). */
double clockOverheadNs();

/** Counts calls and times one in `every` (see the file comment). */
struct CallSampler
{
    explicit CallSampler(unsigned every = 32) : every(every) {}

    unsigned every;
    std::uint64_t calls = 0;
    std::uint64_t sampled = 0;
    double sampledNs = 0.0;

    bool tick() { return calls++ % every == 0; }
    void add(Clock::time_point a, Clock::time_point b);
    /** Estimated total seconds across all calls. */
    double estimatedSeconds() const;
};

/** Sum of several samplers' call counts and scaled estimates. */
struct SampledTotal
{
    std::uint64_t calls = 0;
    double seconds = 0.0;

    void
    add(const CallSampler &s)
    {
        calls += s.calls;
        seconds += s.estimatedSeconds();
    }
};

/** InstSource decorator: forwards, and samples step() time. */
class SampledSource final : public rvp::InstSource
{
  public:
    SampledSource(rvp::InstSource &inner, CallSampler &sampler)
        : inner_(inner), sampler_(sampler)
    {
    }

    bool
    step(rvp::DynInst &out) override
    {
        if (!sampler_.tick())
            return inner_.step(out);
        auto t0 = Clock::now();
        bool more = inner_.step(out);
        sampler_.add(t0, Clock::now());
        return more;
    }

    const rvp::ArchState &
    preState() const override
    {
        return inner_.preState();
    }

  private:
    rvp::InstSource &inner_;
    CallSampler &sampler_;
};

/** ValuePredictor decorator: forwards, and samples onInst() time. */
class SampledPredictor final : public rvp::ValuePredictor
{
  public:
    SampledPredictor(rvp::ValuePredictor &inner, CallSampler &sampler)
        : inner_(inner), sampler_(sampler)
    {
    }

    rvp::VpDecision
    onInst(const rvp::DynInst &inst, const rvp::ArchState &pre) override
    {
        if (!sampler_.tick())
            return inner_.onInst(inst, pre);
        auto t0 = Clock::now();
        rvp::VpDecision d = inner_.onInst(inst, pre);
        sampler_.add(t0, Clock::now());
        return d;
    }

    rvp::StaticPredSpec
    specOf(std::uint32_t staticIndex) const override
    {
        return inner_.specOf(staticIndex);
    }

    bool valueFromBuffer() const override { return inner_.valueFromBuffer(); }

    void
    exportStats(rvp::StatSet &stats) const override
    {
        inner_.exportStats(stats);
    }

  private:
    rvp::ValuePredictor &inner_;
    CallSampler &sampler_;
};

struct SpanRecord
{
    std::string name;
    std::uint64_t runId = 0;
    long parent = -1;        ///< index into spans(), -1 = root
    unsigned thread = 0;     ///< small per-trace thread number
    double start = 0.0;
    double end = 0.0;
};

/** What the decorators and run bodies add up across all runs. */
struct LayerCounters
{
    SampledTotal live;       ///< LiveEmulatorSource::step
    SampledTotal decode;     ///< StreamCursor::step
    SampledTotal vp;         ///< ValuePredictor::onInst
    std::uint64_t captures = 0;
    std::uint64_t coreRuns = 0;
    std::uint64_t simCycles = 0;
    std::uint64_t simInsts = 0;
    std::uint64_t vpPredictions = 0;
    std::uint64_t vpCorrect = 0;
};

/**
 * In-memory span log. Thread safe; spans are coarse (a handful per
 * run), so one mutex is cheap next to the work they bracket.
 */
class Trace
{
  public:
    Trace() : origin_(Clock::now()) {}

    /** Open a span on the calling thread; returns its index. */
    long open(const char *name, std::uint64_t runId);
    void close(long index);

    /** Fold one finished run's samples and counts in. */
    void addRun(const CallSampler &live, const CallSampler &decode,
                const CallSampler &vp, const LayerCounters &counts);

    std::vector<SpanRecord> spans() const;
    LayerCounters counters() const;

    /** Self seconds per span name (duration minus direct children). */
    std::map<std::string, double> selfSeconds() const;

    /** JSON-lines dump: one object per span. */
    std::string dumpJsonl() const;

  private:
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
    std::map<std::uint64_t, unsigned> threadIds_;
    LayerCounters counters_;
};

/** RAII span on the calling thread (no-op when trace is null). */
class SpanScope
{
  public:
    SpanScope(Trace *trace, const char *name, std::uint64_t runId)
        : trace_(trace), index_(trace ? trace->open(name, runId) : -1)
    {
    }
    ~SpanScope()
    {
        if (trace_)
            trace_->close(index_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Trace *trace_;
    long index_;
};

/**
 * One experiment composed from the public pieces runExperiment itself
 * is made of (WorkloadCache::compiled/profiled/stream,
 * CapturedStream::capture, StreamCursor, Core::run,
 * prepareExperiment, finishExperiment), with a span around each and
 * the per-instruction seams decorated. Results are bit-identical to
 * runExperiment(config, context). context.cache must be non-null; a
 * cache with a zero stream budget runs live, like an uncached run.
 * Usable as a SweepOptions::runFn body.
 */
rvp::ExperimentResult tracedExperiment(const rvp::ExperimentConfig &config,
                                       const rvp::RunContext &context,
                                       Trace &trace, std::uint64_t runId);

/** Cache warm-up for one workload (compile ref + train, profile
 *  train), spanned as warmup -> compile | profile. */
void tracedWarmup(rvp::WorkloadCache &cache, const std::string &workload,
                  std::uint64_t profileInsts, Trace *trace,
                  std::uint64_t runId);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
