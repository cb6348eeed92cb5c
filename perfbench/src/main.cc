/**
 * @file
 * perfbench: run one benchmark workload and print its metrics.
 *
 *   perfbench --workload paper-grid|single-cold|service-mixed
 *             --seed N --seconds S --trace 0|1
 *             [--refs FILE] [--out-dir DIR] [--describe TEXT]
 *   perfbench --make-reference FILE
 *
 * The last line of standard output is one JSON object with exactly the
 * keys correct, attempted, failed and metrics (each metric a
 * {value, unit} pair): the end-to-end metrics untraced, the per-layer
 * metrics with --trace 1. The line before it is the run's full row:
 * the same numbers plus the host facts (seed, nproc, build type,
 * compiler, LTO / native-arch flags, source description) and the first
 * failure reasons, if any.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "grid.hh"
#include "sim/journal.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload paper-grid|single-cold|"
                 "service-mixed --seed N --seconds S --trace 0|1\n"
                 "                 [--refs FILE] [--out-dir DIR] "
                 "[--describe TEXT]\n"
                 "       perfbench --make-reference FILE\n",
                 why);
    std::exit(2);
}

std::string
json(const std::string &s)
{
    std::string out = "\"";
    out += rvp::jsonEscape(s);
    out += '"';
    return out;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const Outcome &out)
{
    std::string s = "{";
    for (const auto &[name, m] : out.metrics) {
        if (s.size() > 1)
            s += ", ";
        s += json(name) + ": {\"value\": " + num(m.value) +
             ", \"unit\": " + json(m.unit) + "}";
    }
    return s + "}";
}

/** Uncached runExperiment over every grid config and pool spec. */
int
makeReference(const std::string &path, unsigned jobs)
{
    struct Item
    {
        std::string id;
        rvp::ExperimentConfig config;
    };
    std::vector<Item> items;
    for (const GridEntry &e : paperGrid())
        items.push_back({e.id(), e.config});
    for (const rvp::RunSpec &spec : servicePool())
        items.push_back({specId(spec), rvp::configForSpec(spec)});

    std::vector<rvp::ExperimentResult> results(items.size());
    rvp::parallelFor(items.size(), jobs, [&](std::size_t i) {
        results[i] = rvp::runExperiment(items[i].config);
    });
    ReferenceTable table;
    for (std::size_t i = 0; i < items.size(); ++i)
        table.add(items[i].id, results[i]);
    std::ofstream out(path, std::ios::trunc);
    out << table.serialize();
    if (!out.flush())
        throw std::runtime_error("cannot write " + path);
    std::fprintf(stderr, "perfbench: wrote %zu reference digests to %s\n",
                 table.size(), path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.jobs = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    std::string refs = "perfbench/data/reference_digests.tsv";
    std::string describe = "unknown";
    std::string makeRef;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                opts.workload = next();
            } else if (arg == "--seed") {
                opts.seed = std::stoull(next());
                haveSeed = true;
            } else if (arg == "--seconds") {
                opts.seconds = std::stod(next());
                haveSeconds = true;
            } else if (arg == "--trace") {
                std::string t = next();
                if (t != "0" && t != "1")
                    usage("--trace takes 0 or 1");
                opts.trace = t == "1";
                haveTrace = true;
            } else if (arg == "--refs") {
                refs = next();
            } else if (arg == "--out-dir") {
                opts.outDir = next();
            } else if (arg == "--describe") {
                describe = next();
            } else if (arg == "--make-reference") {
                makeRef = next();
            } else {
                usage(("unknown argument " + arg).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + arg).c_str());
        }
    }

    try {
        if (!makeRef.empty())
            return makeReference(makeRef, opts.jobs);
        if (!haveSeed || !haveSeconds || !haveTrace || opts.seconds <= 0)
            usage("--workload, --seed, --seconds and --trace are required");

        ReferenceTable table = ReferenceTable::load(refs);
        std::filesystem::create_directories(opts.outDir);
        double yardstickStart = yardstickMs();
        Outcome out;
        if (opts.workload == "paper-grid")
            out = runPaperGrid(opts, table);
        else if (opts.workload == "single-cold")
            out = runSingleCold(opts, table);
        else if (opts.workload == "service-mixed")
            out = runServiceMixed(opts, table);
        else
            usage(("unknown workload " + opts.workload).c_str());

        out.facts["yardstick_start_ms"] = num(yardstickStart);
        out.facts["yardstick_end_ms"] = num(yardstickMs());
        bool correct = out.failed == 0 && out.complete && out.attempted > 0;
        for (const std::string &p : out.problems)
            std::fprintf(stderr, "perfbench: %s\n", p.c_str());

        std::string row = "{\"row\": {\"workload\": " + json(opts.workload) +
                          ", \"seed\": " + std::to_string(opts.seed) +
                          ", \"seconds\": " + num(opts.seconds) +
                          ", \"trace\": " + (opts.trace ? "1" : "0") +
                          ", \"jobs\": " + std::to_string(opts.jobs) +
                          ", \"nproc\": " +
                          std::to_string(std::thread::hardware_concurrency()) +
                          ", \"build_type\": " + json(PERFBENCH_BUILD_TYPE) +
                          ", \"compiler\": " + json(__VERSION__) +
                          ", \"lto\": " + std::to_string(PERFBENCH_LTO) +
                          ", \"native_arch\": " +
                          std::to_string(PERFBENCH_NATIVE) +
                          ", \"describe\": " + json(describe);
        for (const auto &[k, v] : out.facts)
            row += ", " + json(k) + ": " + json(v);
        row += ", \"problems\": [";
        for (std::size_t i = 0; i < out.problems.size(); ++i)
            row += (i ? ", " : "") + json(out.problems[i]);
        row += "]}}";
        std::printf("%s\n", row.c_str());
        std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                    correct ? "true" : "false", out.attempted, out.failed,
                    metricsJson(out).c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
