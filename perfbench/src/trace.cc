#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <new>
#include <optional>
#include <thread>

#include "metrics.hh"
#include "uarch/core.hh"

namespace perfbench
{

namespace
{

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<long> openSpans;

} // namespace

double
clockOverheadNs()
{
    static const double overhead = [] {
        std::vector<double> samples;
        samples.reserve(2001);
        for (int i = 0; i < 2001; ++i) {
            auto a = Clock::now();
            auto b = Clock::now();
            samples.push_back(
                std::chrono::duration<double, std::nano>(b - a).count());
        }
        return median(samples);
    }();
    return overhead;
}

void
CallSampler::add(Clock::time_point a, Clock::time_point b)
{
    double ns = std::chrono::duration<double, std::nano>(b - a).count() -
                clockOverheadNs();
    sampledNs += std::max(ns, 0.0);
    ++sampled;
}

double
CallSampler::estimatedSeconds() const
{
    if (sampled == 0)
        return 0.0;
    return sampledNs * 1e-9 * static_cast<double>(calls) /
           static_cast<double>(sampled);
}

long
Trace::open(const char *name, std::uint64_t runId)
{
    double now = seconds(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    SpanRecord s;
    s.name = name;
    s.runId = runId;
    s.parent = openSpans.empty() ? -1 : openSpans.back();
    std::uint64_t tid =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    auto [it, fresh] = threadIds_.emplace(
        tid, static_cast<unsigned>(threadIds_.size()));
    (void)fresh;
    s.thread = it->second;
    s.start = now;
    s.end = now;
    spans_.push_back(std::move(s));
    long index = static_cast<long>(spans_.size()) - 1;
    openSpans.push_back(index);
    return index;
}

void
Trace::close(long index)
{
    double now = seconds(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end = now;
    if (!openSpans.empty() && openSpans.back() == index)
        openSpans.pop_back();
}

void
Trace::addRun(const CallSampler &live, const CallSampler &decode,
              const CallSampler &vp, const LayerCounters &c)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.live.add(live);
    counters_.decode.add(decode);
    counters_.vp.add(vp);
    counters_.captures += c.captures;
    counters_.coreRuns += c.coreRuns;
    counters_.simCycles += c.simCycles;
    counters_.simInsts += c.simInsts;
    counters_.vpPredictions += c.vpPredictions;
    counters_.vpCorrect += c.vpCorrect;
}

std::vector<SpanRecord>
Trace::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

LayerCounters
Trace::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

std::map<std::string, double>
Trace::selfSeconds() const
{
    std::vector<SpanRecord> all = spans();
    std::vector<double> self(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        self[i] = all[i].end - all[i].start;
    for (const SpanRecord &s : all)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < all.size(); ++i)
        out[all[i].name] += self[i];
    return out;
}

std::string
Trace::dumpJsonl() const
{
    std::string out;
    char buf[256];
    for (const SpanRecord &s : spans()) {
        std::snprintf(buf, sizeof buf,
                      "{\"name\": \"%s\", \"run\": %llu, \"parent\": %ld, "
                      "\"thread\": %u, \"start\": %.9f, \"end\": %.9f}\n",
                      s.name.c_str(),
                      static_cast<unsigned long long>(s.runId), s.parent,
                      s.thread, s.start, s.end);
        out += buf;
    }
    return out;
}

void
tracedWarmup(rvp::WorkloadCache &cache, const std::string &workload,
             std::uint64_t profileInsts, Trace *trace, std::uint64_t runId)
{
    SpanScope warm(trace, "warmup", runId);
    {
        SpanScope span(trace, "compile", runId);
        cache.compiled(workload, rvp::InputSet::Ref);
        cache.compiled(workload, rvp::InputSet::Train);
    }
    SpanScope span(trace, "profile", runId);
    cache.profiled(workload, rvp::InputSet::Train, profileInsts);
}

rvp::ExperimentResult
tracedExperiment(const rvp::ExperimentConfig &config,
                 const rvp::RunContext &context, Trace &trace,
                 std::uint64_t runId)
{
    using namespace rvp;
    SpanScope run(&trace, "run", runId);
    WorkloadCache &cache = *context.cache;
    const RunDeadline *deadline = context.deadline;
    LayerCounters counters;
    CallSampler liveSampler, decodeSampler, vpSampler;

    std::optional<PreparedRun> prep;
    {
        SpanScope span(&trace, "prepare", runId);
        // The same needs-profile rule prepareExperiment applies; the
        // calls below fill the cache so prepareExperiment's own
        // lookups are hits and its remaining self time is the binary
        // rewrite and predictor construction.
        bool needsProfile =
            config.scheme == VpScheme::StaticRvp ||
            (config.scheme == VpScheme::DynamicRvp &&
             config.assist != AssistLevel::Same) ||
            config.realisticRealloc;
        {
            SpanScope c(&trace, "compile", runId);
            if (needsProfile)
                cache.compiled(config.workload, InputSet::Train, deadline);
            cache.compiled(config.workload, InputSet::Ref, deadline);
        }
        if (needsProfile) {
            SpanScope p(&trace, "profile", runId);
            cache.profiled(config.workload, InputSet::Train,
                           config.profileInsts, deadline);
        }
        prep.emplace(prepareExperiment(config, context));
    }

    // Stream replay exactly as runExperiment does it, including its
    // capture-OOM and integrity fallbacks to live emulation.
    WorkloadCache::StreamPtr stream;
    std::unique_ptr<StreamCursor> cursor;
    if (!context.bypassStream && cache.streamBudgetBytes() > 0) {
        SpanScope span(&trace, "stream", runId);
        const Program &timed = prep->timedProgram();
        try {
            stream = cache.stream(
                prep->key, prep->minInsts, [&](std::uint64_t maxBytes) {
                    SpanScope cap(&trace, "capture", runId);
                    ++counters.captures;
                    return CapturedStream::capture(timed, prep->minInsts,
                                                   maxBytes, deadline);
                });
        } catch (const std::bad_alloc &) {
            cache.noteCaptureOom(prep->key);
            stream = nullptr;
        }
        if (stream) {
            try {
                cursor = std::make_unique<StreamCursor>(stream);
            } catch (const StreamIntegrityError &) {
                cache.noteStreamIntegrityFailure(prep->key);
                stream = nullptr;
            }
        }
    }

    std::optional<LiveEmulatorSource> live;
    InstSource *inner = cursor.get();
    CallSampler *sampler = &decodeSampler;
    if (!inner) {
        live.emplace(prep->timedProgram());
        inner = &*live;
        sampler = &liveSampler;
    }
    SampledSource source(*inner, *sampler);
    SampledPredictor predictor(*prep->predictor, vpSampler);

    CoreResult cr;
    double hostSeconds = 0.0;
    {
        SpanScope span(&trace, "core", runId);
        Core core(config.core, prep->timedProgram(), predictor,
                  prep->tracer.get(), &source, deadline);
        auto t0 = Clock::now();
        cr = core.run();
        hostSeconds = seconds(t0, Clock::now());
    }

    ExperimentResult result;
    {
        SpanScope span(&trace, "finish", runId);
        result = finishExperiment(*prep, std::move(cr), hostSeconds);
    }
    counters.coreRuns = 1;
    counters.simCycles = result.cycles;
    counters.simInsts = result.committed;
    counters.vpPredictions =
        static_cast<std::uint64_t>(result.stats.get("vp.predictions"));
    counters.vpCorrect =
        static_cast<std::uint64_t>(result.stats.get("vp.correct"));
    trace.addRun(liveSampler, decodeSampler, vpSampler, counters);
    return result;
}

} // namespace perfbench
