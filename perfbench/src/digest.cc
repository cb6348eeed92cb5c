#include "digest.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench
{

namespace
{

std::string
num17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

// The benchmark's own FNV-1a rather than the program's: the reference
// table pins this exact function, so it must not follow changes to the
// program's hashing.
std::uint64_t
fnv1a64(const std::string &bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
resultDigest(const rvp::ExperimentResult &result)
{
    std::uint64_t h = fnv1a64("");
    for (const auto &[name, value] : result.stats.values())
        h = fnv1a64(name + "=" + num17(value) + "\n", h);
    h = fnv1a64("ipc=" + num17(result.ipc) + "\n", h);
    h = fnv1a64("cycles=" + std::to_string(result.cycles) + "\n", h);
    h = fnv1a64("committed=" + std::to_string(result.committed) + "\n", h);
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

ReferenceTable
ReferenceTable::parse(const std::string &text)
{
    ReferenceTable table;
    std::istringstream in(text);
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string id, digest;
        Reference ref;
        if (!std::getline(fields, id, '\t') ||
            !std::getline(fields, digest, '\t') ||
            !(fields >> ref.cycles >> ref.committed) ||
            digest.size() != 16)
            throw std::runtime_error("reference table line " +
                                     std::to_string(lineNo) +
                                     " is malformed");
        ref.digest = std::stoull(digest, nullptr, 16);
        if (!table.refs_.emplace(id, ref).second)
            throw std::runtime_error("reference table: duplicate id " + id);
    }
    return table;
}

ReferenceTable
ReferenceTable::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read reference table " + path);
    std::stringstream buf;
    buf << in.rdbuf();
    return parse(buf.str());
}

std::string
ReferenceTable::serialize() const
{
    std::string out =
        "# perfbench reference digests: id, FNV-1a of the sorted stat map "
        "+ ipc + cycles + committed, cycles, committed.\n"
        "# Regenerate with: perfbench --make-reference <file>\n";
    for (const auto &[id, ref] : refs_)
        out += id + "\t" + hex64(ref.digest) + "\t" +
               std::to_string(ref.cycles) + "\t" +
               std::to_string(ref.committed) + "\n";
    return out;
}

void
ReferenceTable::add(const std::string &id,
                    const rvp::ExperimentResult &result)
{
    refs_[id] = {resultDigest(result), result.cycles, result.committed};
}

std::string
ReferenceTable::check(const std::string &id,
                      const rvp::ExperimentResult &result) const
{
    if (result.failed)
        return id + ": run failed: " + result.error;
    auto it = refs_.find(id);
    if (it == refs_.end())
        return id + ": no reference digest";
    std::uint64_t got = resultDigest(result);
    if (got != it->second.digest)
        return id + ": digest " + hex64(got) + " != reference " +
               hex64(it->second.digest) + " (cycles " +
               std::to_string(result.cycles) + " vs " +
               std::to_string(it->second.cycles) + ")";
    return {};
}

} // namespace perfbench
