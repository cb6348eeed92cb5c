/**
 * @file
 * What the workloads share: outcome bookkeeping, the end-to-end and
 * per-layer metric assembly, peak-RSS windows and the host-speed
 * yardstick (declared in workloads.hh).
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <unordered_map>

#include "metrics.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
lookup(const std::map<std::string, double> &m, const char *key)
{
    auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
}

} // namespace

void
Outcome::check(const std::string &reason)
{
    ++attempted;
    if (reason.empty())
        return;
    ++failed;
    if (problems.size() < 8)
        problems.push_back(reason);
}

void
resetPeakRss()
{
    // Hand freed heap back to the kernel first, so a window's peak does
    // not carry what the allocator kept from earlier windows.
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) * 1024.0 / 1e6;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

double
yardstickMs()
{
    std::vector<double> samples;
    std::uint64_t sink = 0;
    for (int s = 0; s < 3; ++s) {
        auto t0 = Clock::now();
        std::unordered_map<std::uint64_t, std::uint64_t> hashed;
        std::map<std::uint64_t, double> ordered;
        std::uint64_t x = 1;
        for (int i = 0; i < 60'000; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            hashed[x % 20'000] += x;
            if (i % 4 == 0)
                ordered[x % 3'000] += 1.0;
        }
        sink += hashed.size() + ordered.size();
        samples.push_back(seconds(t0, Clock::now()) * 1e3);
    }
    // Keep the work observable so it is not optimised away.
    if (sink == 42)
        std::fprintf(stderr, " ");
    return median(samples);
}

bool
anotherPassFits(double elapsed, double lastPass, double budget)
{
    return elapsed + lastPass <= budget;
}

void
setEndToEnd(Outcome &out, const PassTimes &times)
{
    out.set("wall_s", median(times.wall), "s");
    out.set("sim_kips", median(times.kips), "kinst/s");
    out.set("setup_s", median(times.setup), "s");
    out.set("peak_rss_mb", median(times.rssMb), "MB");
    out.facts["passes"] = std::to_string(times.wall.size());
    out.facts["setup_samples"] = std::to_string(times.setup.size());
    out.facts["op_samples"] = std::to_string(times.opMs.size());
    std::string walls;
    for (double w : times.rawWall) {
        if (!walls.empty())
            walls += ' ';
        walls += std::to_string(w);
    }
    out.facts["raw_pass_wall_s"] = walls;
    out.facts["raw_wall_s"] = std::to_string(median(times.rawWall));
    out.facts["speed_factor"] = std::to_string(median(times.factor));
    for (double p : {50.0, 90.0}) {
        std::string name = p == 50.0 ? "op_p50_ms" : "op_p90_ms";
        std::optional<double> v = percentile(times.opMs, p);
        if (!v) {
            // Too few samples for this percentile to mean anything:
            // report the largest one and mark the run incomplete.
            out.complete = false;
            out.problems.push_back(name + ": only " +
                                   std::to_string(times.opMs.size()) +
                                   " samples");
            double worst = 0.0;
            for (double s : times.opMs)
                worst = std::max(worst, s);
            v = worst;
        }
        out.set(name, *v, "ms");
    }
}

void
setLayers(Outcome &out, const LayerInputs &in)
{
    const std::map<std::string, double> self = in.trace->selfSeconds();
    const LayerCounters c = in.trace->counters();
    const rvp::WorkloadCacheStats &cs = in.cache;

    double compile = lookup(self, "compile");
    out.set("compiler.calls", static_cast<double>(cs.compileMisses), "count");
    out.set("compiler.busy_s", compile, "s");

    double profile = lookup(self, "profile");
    out.set("profile.calls", static_cast<double>(cs.profileMisses), "count");
    out.set("profile.busy_s", profile, "s");
    out.set("profile.ns_per_inst",
            1e9 * ratio(profile, static_cast<double>(cs.profileMisses) *
                                     static_cast<double>(in.profileInsts)),
            "ns");

    out.set("emu.insts", static_cast<double>(c.live.calls), "count");
    out.set("emu.busy_s", c.live.seconds, "s");
    out.set("emu.ns_per_inst",
            1e9 * ratio(c.live.seconds, static_cast<double>(c.live.calls)),
            "ns");

    double capture = lookup(self, "capture");
    double wait = lookup(self, "stream");
    out.set("stream.captures", static_cast<double>(c.captures), "count");
    out.set("stream.capture_s", capture, "s");
    out.set("stream.wait_s", wait, "s");
    out.set("stream.bytes_per_inst",
            ratio(static_cast<double>(cs.streamBytesBuilt),
                  static_cast<double>(cs.streamInstsBuilt)),
            "B");
    out.set("stream.replay_insts", static_cast<double>(c.decode.calls),
            "count");
    out.set("stream.decode_s", c.decode.seconds, "s");
    out.set("stream.decode_ns_per_inst",
            1e9 * ratio(c.decode.seconds, static_cast<double>(c.decode.calls)),
            "ns");
    out.set("stream.hit_rate",
            ratio(static_cast<double>(cs.streamHits),
                  static_cast<double>(cs.streamHits + cs.streamMisses)),
            "ratio");
    out.set("stream.resident_mb",
            static_cast<double>(cs.streamBytesResident) / 1e6, "MB");

    double uarch = lookup(self, "core") - c.live.seconds - c.decode.seconds -
                   c.vp.seconds;
    out.set("uarch.runs", static_cast<double>(c.coreRuns), "count");
    out.set("uarch.self_s", uarch, "s");
    out.set("uarch.self_ns_per_inst",
            1e9 * ratio(uarch, static_cast<double>(c.simInsts)), "ns");
    out.set("uarch.sim_cycles", static_cast<double>(c.simCycles), "cycles");
    out.set("uarch.sim_insts", static_cast<double>(c.simInsts), "count");

    out.set("vp.calls", static_cast<double>(c.vp.calls), "count");
    out.set("vp.busy_s", c.vp.seconds, "s");
    out.set("vp.ns_per_call",
            1e9 * ratio(c.vp.seconds, static_cast<double>(c.vp.calls)), "ns");
    out.set("vp.predicted_frac",
            ratio(static_cast<double>(c.vpPredictions),
                  static_cast<double>(c.simInsts)),
            "ratio");
    out.set("vp.accuracy",
            ratio(static_cast<double>(c.vpCorrect),
                  static_cast<double>(c.vpPredictions)),
            "ratio");

    double prepare = lookup(self, "prepare");
    double finish = lookup(self, "finish");
    double glue = lookup(self, "run") + lookup(self, "warmup");
    out.set("sim.prepare_s", prepare, "s");
    out.set("sim.finish_s", finish, "s");
    out.set("sim.run_self_s", glue, "s");
    out.set("sim.worker_idle_s", in.idle, "s");
    out.set("sim.compile_hit_rate",
            ratio(static_cast<double>(cs.compileHits),
                  static_cast<double>(cs.compileHits + cs.compileMisses)),
            "ratio");
    out.set("sim.profile_hit_rate",
            ratio(static_cast<double>(cs.profileHits),
                  static_cast<double>(cs.profileHits + cs.profileMisses)),
            "ratio");
    for (const char *name : {"sim.batched_runs", "sim.retries"})
        out.set(name, 0.0, "count");
    for (const char *name : {"sim.batch_saved_s", "sim.solo_wall_s",
                             "sim.batched_wall_s"})
        out.set(name, 0.0, "s");
    out.set("sim.traced_batching_off", 0.0, "flag");

    double submit = lookup(self, "submit");
    out.set("service.client_busy_s", submit, "s");
    for (const char *name : {"service.store_open_s"})
        out.set(name, 0.0, "s");
    for (const char *name :
         {"service.cached_submit_ms", "service.fresh_submit_ms"})
        out.set(name, 0.0, "ms");
    for (const char *name :
         {"service.executed", "service.served_cached",
          "service.dedup_subscribed", "service.error_frames"})
        out.set(name, 0.0, "count");
    out.set("service.store_bytes", 0.0, "B");

    double layers = compile + profile + c.live.seconds + capture + wait +
                    c.decode.seconds + uarch + c.vp.seconds + prepare +
                    finish + glue + submit;
    double laneSeconds = in.lanes * in.tracedWall;
    out.set("trace.wall_s", in.tracedWall, "s");
    out.set("trace.lane_s", laneSeconds, "s");
    out.set("trace.layers_s", layers, "s");
    out.set("trace.unattributed_s", laneSeconds - layers - in.idle, "s");
    out.set("trace.overhead_s", in.tracedWall - in.untracedWall, "s");
}

void
dumpSpans(const Options &opts, const Trace &trace)
{
    std::string path = opts.outDir + "/spans-" + opts.workload + "-" +
                       std::to_string(opts.seed) + ".jsonl";
    std::ofstream out(path, std::ios::trunc);
    out << trace.dumpJsonl();
}

} // namespace perfbench
