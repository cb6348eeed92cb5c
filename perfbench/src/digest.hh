/**
 * @file
 * Result digests and the reference table the benchmark checks every
 * simulated result against.
 *
 * Simulated statistics are deterministic, so one 64-bit digest per
 * run pins the whole outcome: FNV-1a over the stat map in key order
 * ("name=value\n", values as %.17g so the text round-trips the double
 * exactly), followed by ipc, cycles and committed. Host timing
 * (hostSeconds, kips) is not part of a result's stat map and never
 * enters the digest.
 *
 * The reference table (perfbench/data/reference_digests.tsv) was made
 * with `perfbench --make-reference`, which runs every config through
 * uncached runExperiment. One line per run:
 *
 *     <id> TAB <digest hex> TAB <cycles> TAB <committed>
 *
 * Grid ids are "<figure>/<variant>/<workload>"; service-pool ids are
 * "svc/<runSpecKey>". '#' lines are comments.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <cstdint>
#include <map>
#include <string>

#include "sim/runner.hh"

namespace perfbench
{

/** 64-bit FNV-1a of bytes, continuing from h. */
std::uint64_t fnv1a64(const std::string &bytes,
                      std::uint64_t h = 0xcbf29ce484222325ull);

/** Digest of one result (stat map + ipc + cycles + committed). */
std::uint64_t resultDigest(const rvp::ExperimentResult &result);

/** Lower-case 16-digit hex. */
std::string hex64(std::uint64_t v);

struct Reference
{
    std::uint64_t digest = 0;
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
};

class ReferenceTable
{
  public:
    /** Parse the table text; throws std::runtime_error on a bad line. */
    static ReferenceTable parse(const std::string &text);
    /** Read and parse a file; throws std::runtime_error if unreadable. */
    static ReferenceTable load(const std::string &path);

    /** Serialized form (sorted by id, with a header comment). */
    std::string serialize() const;

    void add(const std::string &id, const rvp::ExperimentResult &result);

    /**
     * Empty when result matches the reference for id; otherwise the
     * reason (unknown id, failed run, digest mismatch).
     */
    std::string check(const std::string &id,
                      const rvp::ExperimentResult &result) const;

    std::size_t size() const { return refs_.size(); }

  private:
    std::map<std::string, Reference> refs_;
};

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
