#include "grid.hh"

#include <functional>
#include <utility>

#include "workloads/workloads.hh"

namespace perfbench
{

using rvp::AssistLevel;
using rvp::ExperimentConfig;
using rvp::RecoveryPolicy;
using rvp::VpScheme;

namespace
{

using Apply = std::function<void(ExperimentConfig &)>;

struct Figure
{
    const char *name;
    std::vector<std::string> workloads;   ///< empty = all nine
    std::vector<std::pair<const char *, Apply>> variants;
};

Apply
compose(std::vector<Apply> fns)
{
    return [fns = std::move(fns)](ExperimentConfig &c) {
        for (const Apply &fn : fns)
            fn(c);
    };
}

/** The figure list of the default paper grid, variant for variant. */
std::vector<Figure>
figures()
{
    using C = ExperimentConfig;
    Apply selective = [](C &c) { c.core.recovery = RecoveryPolicy::Selective; };
    Apply lvp = [](C &c) { c.scheme = VpScheme::Lvp; };
    Apply grp = [](C &c) { c.scheme = VpScheme::GabbayRp; };
    Apply allInsts = [](C &c) { c.loadsOnly = false; };
    auto srvp = [](AssistLevel a) -> Apply {
        return [a](C &c) {
            c.scheme = VpScheme::StaticRvp;
            c.assist = a;
        };
    };
    auto drvp = [](AssistLevel a) -> Apply {
        return [a](C &c) {
            c.scheme = VpScheme::DynamicRvp;
            c.assist = a;
        };
    };
    auto recovery = [](RecoveryPolicy p) -> Apply {
        return [p](C &c) { c.core.recovery = p; };
    };
    Apply thresh80 = [](C &c) { c.profileThreshold = 0.8; };
    Apply thresh90 = [](C &c) { c.profileThreshold = 0.9; };
    Apply realloc = [](C &c) {
        c.scheme = VpScheme::DynamicRvp;
        c.realisticRealloc = true;
    };
    Apply wide = [](C &c) {
        std::uint64_t budget = c.core.maxInsts;
        c.core = rvp::CoreParams::aggressive16();
        c.core.maxInsts = budget;
        c.core.recovery = RecoveryPolicy::Selective;
        c.loadsOnly = false;
    };
    Apply fig03 = compose({selective, thresh80});
    Apply sAll = compose({selective, allInsts});

    return {
        {"fig03",
         {},
         {{"no_predict", fig03},
          {"lvp", compose({fig03, lvp})},
          {"srvp_same", compose({fig03, srvp(AssistLevel::Same)})},
          {"srvp_dead", compose({fig03, srvp(AssistLevel::Dead)})},
          {"srvp_live", compose({fig03, srvp(AssistLevel::Live)})},
          {"srvp_live_lv", compose({fig03, srvp(AssistLevel::LiveLv)})}}},
        {"fig04",
         {},
         {{"no_predict", thresh90},
          {"srvp_refetch",
           compose({thresh90, srvp(AssistLevel::Dead),
                    recovery(RecoveryPolicy::Refetch)})},
          {"srvp_reissue",
           compose({thresh90, srvp(AssistLevel::Dead),
                    recovery(RecoveryPolicy::Reissue)})},
          {"srvp_selective",
           compose({thresh90, srvp(AssistLevel::Dead), selective})}}},
        {"fig05",
         {},
         {{"no_predict", selective},
          {"lvp", compose({selective, lvp})},
          {"drvp", compose({selective, drvp(AssistLevel::Same)})},
          {"drvp_dead", compose({selective, drvp(AssistLevel::Dead)})},
          {"drvp_dead_lv",
           compose({selective, drvp(AssistLevel::DeadLv)})}}},
        {"fig06",
         {},
         {{"no_predict", sAll},
          {"lvp_all", compose({sAll, lvp})},
          {"grp_all", compose({sAll, grp})},
          {"drvp_all", compose({sAll, drvp(AssistLevel::Same)})},
          {"drvp_all_dead", compose({sAll, drvp(AssistLevel::Dead)})},
          {"drvp_all_dead_lv",
           compose({sAll, drvp(AssistLevel::DeadLv)})}}},
        {"table2",
         {},
         {{"drvp_dead", compose({sAll, drvp(AssistLevel::Dead)})},
          {"drvp_dead_lv", compose({sAll, drvp(AssistLevel::DeadLv)})},
          {"lvp", compose({sAll, lvp})},
          {"grp", compose({sAll, grp})}}},
        {"fig07",
         {"hydro2d", "li", "mgrid", "su2cor"},
         {{"no_predict", sAll},
          {"lvp", compose({sAll, lvp})},
          {"drvp_all_noreallocate",
           compose({sAll, drvp(AssistLevel::Same)})},
          {"drvp_all_dead_lv_realloc", compose({sAll, realloc})},
          {"drvp_all_dead_lv_ideal",
           compose({sAll, drvp(AssistLevel::DeadLv)})}}},
        {"fig08",
         {},
         {{"no_predict", wide},
          {"lvp_all", compose({wide, lvp})},
          {"drvp_all", compose({wide, drvp(AssistLevel::Same)})},
          {"drvp_all_dead_lv", compose({wide, drvp(AssistLevel::DeadLv)})}}},
        {"stride",
         {},
         {{"no_predict", sAll},
          {"drvp_dead_lv", compose({sAll, drvp(AssistLevel::DeadLv)})},
          {"drvp_dead_lv_stride",
           compose({sAll, drvp(AssistLevel::DeadLvStride)})}}},
    };
}

} // namespace

std::string
GridEntry::id() const
{
    return figure + "/" + variant + "/" + config.workload;
}

std::vector<GridEntry>
paperGrid()
{
    std::vector<std::string> all;
    for (const rvp::WorkloadSpec &spec : rvp::allWorkloads())
        all.push_back(spec.name);

    std::vector<GridEntry> grid;
    for (const Figure &fig : figures()) {
        const std::vector<std::string> &wls =
            fig.workloads.empty() ? all : fig.workloads;
        for (const std::string &workload : wls) {
            for (const auto &[variant, apply] : fig.variants) {
                GridEntry e;
                e.figure = fig.name;
                e.variant = variant;
                e.config.workload = workload;
                e.config.core.maxInsts = 400'000;
                e.config.profileInsts = 300'000;
                apply(e.config);
                grid.push_back(std::move(e));
            }
        }
    }
    return grid;
}

std::vector<rvp::RunSpec>
servicePool()
{
    struct Shape
    {
        const char *scheme;
        const char *assist;
        const char *recovery;
        bool loadsOnly;
        unsigned tableEntries;
    };
    static const Shape shapes[] = {
        {"none", "same", "selective", true, 1024},
        {"none", "same", "selective", false, 1024},
        {"lvp", "same", "selective", true, 1024},
        {"lvp", "same", "selective", false, 1024},
        {"lvp", "same", "reissue", false, 1024},
        {"lvp", "same", "selective", false, 256},
        {"drvp", "same", "selective", true, 1024},
        {"drvp", "same", "selective", false, 1024},
        {"drvp", "dead", "selective", true, 1024},
        {"drvp", "dead", "reissue", true, 1024},
        {"drvp", "dead_lv", "selective", false, 1024},
        {"drvp", "dead_lv", "refetch", false, 1024},
        {"srvp", "dead", "selective", true, 1024},
        {"srvp", "dead", "refetch", true, 1024},
        {"srvp", "live_lv", "selective", true, 1024},
        {"grp", "same", "selective", false, 1024},
        {"stride", "same", "selective", false, 1024},
        {"balcvp", "same", "selective", false, 1024},
        {"fcm", "same", "selective", false, 1024},
        {"oracle", "same", "selective", false, 1024},
    };
    std::vector<rvp::RunSpec> pool;
    for (const rvp::WorkloadSpec &wl : rvp::allWorkloads()) {
        for (const Shape &s : shapes) {
            rvp::RunSpec spec;
            spec.workload = wl.name;
            spec.scheme = s.scheme;
            spec.assist = s.assist;
            spec.recovery = s.recovery;
            spec.loadsOnly = s.loadsOnly;
            spec.tableEntries = s.tableEntries;
            spec.insts = 100'000;
            spec.profileInsts = 100'000;
            pool.push_back(spec);
        }
    }
    return pool;
}

std::string
specId(const rvp::RunSpec &spec)
{
    return "svc/" + rvp::runSpecKey(spec);
}

std::uint64_t
SeedRng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
SeedRng::below(std::uint64_t bound)
{
    return next() % bound;
}

std::vector<std::size_t>
permutation(std::size_t n, SeedRng &rng)
{
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i)
        p[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[rng.below(i)]);
    return p;
}

} // namespace perfbench
