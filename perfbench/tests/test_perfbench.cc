/**
 * @file
 * Unit tests of the benchmark's own pieces: the percentile
 * sample-count rule, result digests and the reference table, the
 * sampling decorators and span accounting, and the input generators.
 * Run with `python3 perfbench/run.py --selftest`.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>

#include "digest.hh"
#include "grid.hh"
#include "metrics.hh"
#include "trace.hh"

using namespace perfbench;

namespace
{

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i)
        v.push_back(i);
    return v;
}

rvp::ExperimentConfig
smallConfig()
{
    rvp::ExperimentConfig c;
    c.workload = "m88ksim";
    c.scheme = rvp::VpScheme::DynamicRvp;
    c.assist = rvp::AssistLevel::DeadLv;
    c.loadsOnly = false;
    c.core.maxInsts = 20'000;
    c.profileInsts = 20'000;
    return c;
}

} // namespace

TEST(PercentileRule, TenSamplesMustLieBeyond)
{
    EXPECT_EQ(samplesBeyond(90, 100), 10u);
    EXPECT_EQ(samplesBeyond(90, 99), 9u);
    EXPECT_EQ(samplesBeyond(50, 20), 10u);
    EXPECT_EQ(samplesBeyond(99, 1000), 10u);
    EXPECT_EQ(samplesBeyond(99, 999), 9u);
}

TEST(PercentileRule, RefusesThinTails)
{
    EXPECT_FALSE(percentile(oneTo(99), 90).has_value());
    EXPECT_FALSE(percentile(oneTo(19), 50).has_value());
    EXPECT_FALSE(percentile({}, 50).has_value());
}

TEST(PercentileRule, NearestRankValues)
{
    EXPECT_EQ(*percentile(oneTo(100), 90), 90.0);
    EXPECT_EQ(*percentile(oneTo(20), 50), 10.0);
    EXPECT_EQ(*percentile(oneTo(200), 90), 180.0);
    EXPECT_EQ(median(oneTo(4)), 2.5);
    EXPECT_EQ(median(oneTo(5)), 3.0);
    EXPECT_EQ(median({}), 0.0);
}

TEST(Digest, CoversStatsAndHeadlineButNotHostTime)
{
    rvp::ExperimentResult a;
    a.ipc = 1.25;
    a.cycles = 1000;
    a.committed = 1250;
    a.stats.set("core.b", 2.0);
    a.stats.set("core.a", 1.0);
    std::uint64_t base = resultDigest(a);

    rvp::ExperimentResult timing = a;
    timing.hostSeconds = 3.0;
    timing.kips = 7.0;
    EXPECT_EQ(resultDigest(timing), base);

    rvp::ExperimentResult order;
    order.ipc = 1.25;
    order.cycles = 1000;
    order.committed = 1250;
    order.stats.set("core.a", 1.0);
    order.stats.set("core.b", 2.0);
    EXPECT_EQ(resultDigest(order), base);

    rvp::ExperimentResult ulp = a;
    ulp.stats.set("core.a", std::nextafter(1.0, 2.0));
    EXPECT_NE(resultDigest(ulp), base);
    rvp::ExperimentResult cycles = a;
    cycles.cycles = 1001;
    EXPECT_NE(resultDigest(cycles), base);
    rvp::ExperimentResult extra = a;
    extra.stats.set("core.c", 0.0);
    EXPECT_NE(resultDigest(extra), base);
}

TEST(Digest, Fnv1aKnownValues)
{
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(hex64(0xabcull), "0000000000000abc");
}

TEST(ReferenceTable, RoundTripAndCheck)
{
    rvp::ExperimentResult r;
    r.cycles = 10;
    r.committed = 20;
    r.stats.set("x", 1.0);
    ReferenceTable t;
    t.add("fig/v/go", r);
    ReferenceTable back = ReferenceTable::parse(t.serialize());
    EXPECT_EQ(back.size(), 1u);
    EXPECT_EQ(back.check("fig/v/go", r), "");

    rvp::ExperimentResult other = r;
    other.stats.set("x", 2.0);
    EXPECT_NE(back.check("fig/v/go", other), "");
    EXPECT_NE(back.check("fig/v/li", r), "");
    rvp::ExperimentResult failed = r;
    failed.failed = true;
    EXPECT_NE(back.check("fig/v/go", failed), "");
}

TEST(ReferenceTable, RejectsMalformedLines)
{
    EXPECT_THROW(ReferenceTable::parse("id\tnothex\n"), std::runtime_error);
    EXPECT_THROW(ReferenceTable::parse("id\t0123456789abcdef\t1\n"),
                 std::runtime_error);
    std::string line = "id\t0123456789abcdef\t1\t2\n";
    EXPECT_THROW(ReferenceTable::parse(line + line), std::runtime_error);
    EXPECT_EQ(ReferenceTable::parse("# comment\n" + line).size(), 1u);
}

TEST(Sampler, ScalesSampledTime)
{
    CallSampler s(4);
    auto t0 = Clock::now();
    int sampled = 0;
    for (int i = 0; i < 40; ++i)
        if (s.tick()) {
            ++sampled;
            s.add(t0, t0 + std::chrono::microseconds(1));
        }
    EXPECT_EQ(sampled, 10);
    EXPECT_EQ(s.calls, 40u);
    double perCall = std::max(1000.0 - clockOverheadNs(), 0.0) * 1e-9;
    EXPECT_NEAR(s.estimatedSeconds(), 40 * perCall, 1e-12);
    SampledTotal total;
    total.add(s);
    total.add(s);
    EXPECT_EQ(total.calls, 80u);
    EXPECT_NEAR(total.seconds, 2 * s.estimatedSeconds(), 1e-15);
}

TEST(Spans, SelfTimeSubtractsChildren)
{
    Trace trace;
    {
        SpanScope run(&trace, "run", 1);
        {
            SpanScope core(&trace, "core", 1);
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::vector<SpanRecord> spans = trace.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[1].runId, 1u);
    auto self = trace.selfSeconds();
    double run = spans[0].end - spans[0].start;
    EXPECT_NEAR(self["run"] + self["core"], run, 1e-12);
    EXPECT_GE(self["core"], 0.005);
    EXPECT_GE(self["run"], 0.002);
    EXPECT_NE(trace.dumpJsonl().find("\"name\": \"core\""), std::string::npos);
}

TEST(Decorators, LiveTracedRunMatchesUncachedRun)
{
    rvp::ExperimentConfig c = smallConfig();
    rvp::ExperimentResult plain = rvp::runExperiment(c);
    Trace trace;
    rvp::WorkloadCache cache(0);
    rvp::RunContext context;
    context.cache = &cache;
    rvp::ExperimentResult traced = tracedExperiment(c, context, trace, 1);
    EXPECT_EQ(resultDigest(traced), resultDigest(plain));
    LayerCounters counters = trace.counters();
    EXPECT_GE(counters.live.calls, c.core.maxInsts);
    EXPECT_EQ(counters.decode.calls, 0u);
    EXPECT_GT(counters.vp.calls, 0u);
    EXPECT_GT(counters.live.seconds, 0.0);
    EXPECT_EQ(counters.simInsts, plain.committed);
    EXPECT_EQ(counters.captures, 0u);
}

TEST(Decorators, ReplayTracedRunMatchesUncachedRun)
{
    rvp::ExperimentConfig c = smallConfig();
    rvp::ExperimentResult plain = rvp::runExperiment(c);
    Trace trace;
    rvp::WorkloadCache cache;
    rvp::RunContext context;
    context.cache = &cache;
    rvp::ExperimentResult first = tracedExperiment(c, context, trace, 1);
    rvp::ExperimentResult second = tracedExperiment(c, context, trace, 2);
    EXPECT_EQ(resultDigest(first), resultDigest(plain));
    EXPECT_EQ(resultDigest(second), resultDigest(plain));
    LayerCounters counters = trace.counters();
    EXPECT_EQ(counters.captures, 1u);
    EXPECT_GE(counters.decode.calls, 2 * c.core.maxInsts);
    EXPECT_EQ(counters.live.calls, 0u);
    EXPECT_EQ(counters.coreRuns, 2u);
    EXPECT_GT(trace.selfSeconds()["capture"], 0.0);
}

TEST(Inputs, PaperGridHas308UniqueRuns)
{
    std::vector<GridEntry> grid = paperGrid();
    ASSERT_EQ(grid.size(), 308u);
    std::set<std::string> ids;
    for (const GridEntry &e : grid)
        ids.insert(e.id());
    EXPECT_EQ(ids.size(), grid.size());
    EXPECT_EQ(grid.front().id(), "fig03/no_predict/go");
    EXPECT_EQ(grid.back().id(), "stride/drvp_dead_lv_stride/turb3d");
}

TEST(Inputs, ServicePoolIsValidAndDistinct)
{
    std::vector<rvp::RunSpec> pool = servicePool();
    std::set<std::string> keys;
    for (const rvp::RunSpec &spec : pool) {
        EXPECT_NO_THROW(rvp::validateRunSpec(spec));
        keys.insert(rvp::runSpecKey(spec));
    }
    EXPECT_EQ(keys.size(), pool.size());
}

TEST(Inputs, SeedDeterminesPermutation)
{
    SeedRng a(7), b(7), c(8);
    std::vector<std::size_t> pa = permutation(50, a);
    EXPECT_EQ(pa, permutation(50, b));
    EXPECT_NE(pa, permutation(50, c));
    std::set<std::size_t> seen(pa.begin(), pa.end());
    EXPECT_EQ(seen.size(), 50u);
    EXPECT_EQ(*seen.rbegin(), 49u);
}
