/**
 * @file
 * The benchmark's inputs: the default 308-run paper grid (the same
 * figures, variants and workloads, in the same order, as
 * `sweep_all` with no --figures filter) and the fixed spec pool the
 * service workload draws from. The seed only permutes or samples
 * these; the program sees nothing but the resulting configs.
 */

#ifndef PERFBENCH_GRID_HH
#define PERFBENCH_GRID_HH

#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.hh"
#include "sim/runner.hh"

namespace perfbench
{

struct GridEntry
{
    std::string figure;
    std::string variant;
    rvp::ExperimentConfig config;

    /** Reference-table id: "<figure>/<variant>/<workload>". */
    std::string id() const;
};

/** The default paper grid at default budgets (308 runs). */
std::vector<GridEntry> paperGrid();

/** The service workload's spec pool (reduced budgets, all valid). */
std::vector<rvp::RunSpec> servicePool();

/** Reference-table id of a service-pool spec: "svc/<runSpecKey>". */
std::string specId(const rvp::RunSpec &spec);

/** Deterministic splitmix64 generator (same stream on every host). */
class SeedRng
{
  public:
    explicit SeedRng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, bound), bound > 0. */
    std::uint64_t below(std::uint64_t bound);

  private:
    std::uint64_t state_;
};

/** Fisher-Yates permutation of [0, n) drawn from rng. */
std::vector<std::size_t> permutation(std::size_t n, SeedRng &rng);

} // namespace perfbench

#endif // PERFBENCH_GRID_HH
