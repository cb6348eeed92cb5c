/**
 * @file
 * service-mixed: an in-process SweepService (executor jobs=1) over a
 * store in a scratch directory, with two client connections from this
 * process in a closed loop: each client sends its next submit only
 * after the previous submit's last result frame arrived.
 *
 * The seed splits the fixed spec pool (grid.hh) into reads and
 * writes. A pre-fill phase executes the reads once into a template
 * store. Every pass then copies the template, restarts the service
 * over the copy, and has both clients submit 2 reads (already stored,
 * answered from the store) + 2 writes (never submitted to this store:
 * executed, put and fsync'd) per submit until each has used its half
 * of the writes. Set-up is the restart: store replay and bind up to
 * the first hello, sampled three times per pass (their median is the
 * pass's set-up). The op is one submit,
 * timed from send to its last result frame.
 */

#include <filesystem>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "grid.hh"
#include "metrics.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "sim/journal.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

namespace fs = std::filesystem;

constexpr std::size_t readCount = 60;
constexpr std::size_t readsPerSubmit = 2;
constexpr std::size_t writesPerSubmit = 2;
constexpr unsigned clientCount = 2;
constexpr unsigned restartsPerPass = 3;
constexpr std::size_t minSubmits = 100;

/** A SweepService running on its own thread. */
class Daemon
{
  public:
    Daemon(const std::string &socket, const std::string &store)
    {
        rvp::ServiceOptions so;
        so.socketPath = socket;
        so.storePath = store;
        so.jobs = 1;
        auto t0 = Clock::now();
        service_ = std::make_unique<rvp::SweepService>(so);
        openSeconds_ = seconds(t0, Clock::now());
        if (!service_->ok())
            throw std::runtime_error("sweep service failed to start on " +
                                     socket);
        thread_ = std::thread([this] { service_->run(); });
    }

    ~Daemon()
    {
        // The drain pipe is empty and non-blocking, so this one-byte
        // write cannot fail short; the service then drains and exits.
        char byte = 'q';
        [[maybe_unused]] ssize_t n = ::write(service_->drainFd(), &byte, 1);
        thread_.join();
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    double openSeconds() const { return openSeconds_; }

  private:
    std::unique_ptr<rvp::SweepService> service_;
    double openSeconds_ = 0.0;
    std::thread thread_;
};

/** What one client saw during a timed phase. */
struct ClientLog
{
    std::vector<double> submitMs;
    std::vector<double> cachedMs;
    std::vector<double> freshMs;
    /** One per submit: empty when every result checked out. */
    std::vector<std::string> verdicts;
    std::uint64_t errorFrames = 0;
    double freshInsts = 0.0;
};

class ServiceMixed
{
  public:
    ServiceMixed(const Options &opts, const ReferenceTable &refs)
        : opts_(opts), refs_(refs)
    {
        pool_ = servicePool();
        SeedRng rng(opts.seed);
        std::vector<std::size_t> order = permutation(pool_.size(), rng);
        reads_.assign(order.begin(), order.begin() + readCount);
        writes_.assign(order.begin() + readCount, order.end());
        dir_ = opts.outDir + "/service-" + std::to_string(::getpid());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        socket_ = dir_ + "/svc.sock";
    }

    ~ServiceMixed() { fs::remove_all(dir_); }

    ServiceMixed(const ServiceMixed &) = delete;
    ServiceMixed &operator=(const ServiceMixed &) = delete;

    /** Execute the reads once into the template store. */
    void
    prefill(Outcome &out)
    {
        Daemon daemon(socket_, templateStore());
        rvp::ServiceClient client;
        if (!client.connect(socket_))
            throw std::runtime_error("pre-fill connect: " + client.lastError());
        ClientLog log;
        roundTrip(client, "prefill", reads_, log, nullptr, 0);
        for (const std::string &v : log.verdicts)
            out.check(v);
    }

    struct Pass
    {
        double wall = 0.0;
        double kips = 0.0;
        std::vector<double> setup;
        std::vector<double> open;
        std::vector<ClientLog> logs;
        rvp::ServiceStatus status;
        std::uintmax_t storeBytes = 0;
    };

    Pass
    pass(Outcome &out, unsigned passNo, Trace *trace)
    {
        Pass p;
        std::string store = dir_ + "/store.jsonl";
        fs::remove(store);
        fs::copy_file(templateStore(), store);

        std::unique_ptr<Daemon> daemon;
        std::vector<std::unique_ptr<rvp::ServiceClient>> clients;
        for (unsigned r = 0; r < restartsPerPass; ++r) {
            clients.clear();
            daemon.reset();
            auto t0 = Clock::now();
            daemon = std::make_unique<Daemon>(socket_, store);
            auto client = std::make_unique<rvp::ServiceClient>();
            if (!client->connect(socket_))
                throw std::runtime_error("connect: " + client->lastError());
            p.setup.push_back(seconds(t0, Clock::now()));
            p.open.push_back(daemon->openSeconds());
            clients.push_back(std::move(client));
        }
        while (clients.size() < clientCount) {
            auto client = std::make_unique<rvp::ServiceClient>();
            if (!client->connect(socket_))
                throw std::runtime_error("connect: " + client->lastError());
            clients.push_back(std::move(client));
        }

        p.logs.resize(clientCount);
        auto t0 = Clock::now();
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clientCount; ++c) {
            threads.emplace_back([&, c] {
                // A frame that decodes to nothing valid throws; record it
                // as a failed submit rather than end the process.
                try {
                    clientLoop(*clients[c], c, passNo, p.logs[c], trace);
                } catch (const std::exception &e) {
                    std::string failure = "client ";
                    failure += std::to_string(c);
                    failure += ": ";
                    failure += e.what();
                    p.logs[c].verdicts.push_back(failure);
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        p.wall = seconds(t0, Clock::now());

        double insts = 0.0;
        for (const ClientLog &log : p.logs) {
            insts += log.freshInsts;
            for (const std::string &v : log.verdicts)
                out.check(v);
        }
        p.kips = insts / p.wall / 1000.0;
        p.status = status(*clients[0]);
        clients.clear();
        daemon.reset();
        p.storeBytes = fs::file_size(store);
        return p;
    }

    Outcome
    untraced()
    {
        Outcome out;
        prefill(out);
        PassTimes times;
        auto start = Clock::now();
        double last = 0.0;
        unsigned passNo = 0;
        do {
            auto passStart = Clock::now();
            double before = yardstickMs();
            resetPeakRss();
            Pass p = pass(out, passNo++, nullptr);
            times.rssMb.push_back(peakRssMb());
            double f = speedFactor(before, yardstickMs());
            times.addPass(p.wall, median(p.setup), p.kips, f);
            for (const ClientLog &log : p.logs)
                for (double ms : log.submitMs)
                    times.opMs.push_back(ms * f);
            last = seconds(passStart, Clock::now());
        } while (times.opMs.size() < minSubmits ||
                 anotherPassFits(seconds(start, Clock::now()), last,
                                 opts_.seconds));
        setEndToEnd(out, times);
        return out;
    }

    Outcome
    traced()
    {
        Outcome out;
        prefill(out);
        Pass plain = pass(out, 0, nullptr);
        Trace trace;
        Pass tr = pass(out, 1, &trace);

        LayerInputs in;
        in.trace = &trace;
        in.lanes = clientCount;
        in.tracedWall = tr.wall;
        in.untracedWall = plain.wall;
        setLayers(out, in);

        std::vector<double> cached, fresh;
        std::uint64_t errors = 0;
        for (const ClientLog &log : tr.logs) {
            cached.insert(cached.end(), log.cachedMs.begin(),
                          log.cachedMs.end());
            fresh.insert(fresh.end(), log.freshMs.begin(), log.freshMs.end());
            errors += log.errorFrames;
        }
        out.set("service.store_open_s", median(tr.open), "s");
        out.set("service.cached_submit_ms", median(cached), "ms");
        out.set("service.fresh_submit_ms", median(fresh), "ms");
        out.set("service.executed",
                static_cast<double>(tr.status.executed), "count");
        out.set("service.served_cached",
                static_cast<double>(tr.status.servedCached), "count");
        out.set("service.dedup_subscribed",
                static_cast<double>(tr.status.dedupSubscribed), "count");
        out.set("service.error_frames", static_cast<double>(errors),
                "count");
        out.set("service.store_bytes", static_cast<double>(tr.storeBytes),
                "B");
        dumpSpans(opts_, trace);
        return out;
    }

  private:
    std::string templateStore() const { return dir_ + "/template.jsonl"; }

    /** This client's closed loop over its half of the writes. */
    void
    clientLoop(rvp::ServiceClient &client, unsigned c, unsigned passNo,
               ClientLog &log, Trace *trace)
    {
        SeedRng rng(opts_.seed * 1000003 + passNo * 7919 + c);
        std::vector<std::size_t> mine;
        for (std::size_t i = c; i < writes_.size(); i += clientCount)
            mine.push_back(writes_[i]);
        for (std::size_t at = 0; at + writesPerSubmit <= mine.size();
             at += writesPerSubmit) {
            std::vector<std::size_t> specs;
            for (std::size_t r = 0; r < readsPerSubmit; ++r)
                specs.push_back(reads_[rng.below(reads_.size())]);
            for (std::size_t w = 0; w < writesPerSubmit; ++w)
                specs.push_back(mine[at + w]);
            std::size_t n = log.verdicts.size();
            std::string id = std::to_string(c);
            id += "-";
            id += std::to_string(n);
            std::uint64_t runId = (passNo * clientCount + c) * 100000 + n + 1;
            roundTrip(client, id, specs, log, trace, runId);
        }
    }

    /** One submit and all its result frames; records into log. */
    void
    roundTrip(rvp::ServiceClient &client, const std::string &id,
              const std::vector<std::size_t> &specs, ClientLog &log,
              Trace *trace, std::uint64_t runId)
    {
        SpanScope span(trace, "submit", runId);
        std::vector<rvp::RunSpec> runs;
        for (std::size_t s : specs)
            runs.push_back(pool_[s]);
        std::string failure;
        auto t0 = Clock::now();
        if (!client.send(rvp::encodeSubmitRequest(id, runs))) {
            log.verdicts.push_back(id + ": send failed");
            return;
        }
        std::vector<bool> seen(runs.size(), false);
        std::size_t pending = runs.size();
        while (pending > 0) {
            std::optional<rvp::ServerMsg> msg = client.recv();
            if (!msg) {
                log.verdicts.push_back(id + ": connection lost: " +
                                       client.lastError());
                return;
            }
            if (msg->kind == rvp::ServerMsg::Kind::Error) {
                ++log.errorFrames;
                log.verdicts.push_back(id + ": error frame: " + msg->message);
                return;
            }
            if (msg->kind != rvp::ServerMsg::Kind::Result || msg->id != id ||
                msg->index >= runs.size() || seen[msg->index])
                continue;
            double ms = seconds(t0, Clock::now()) * 1e3;
            seen[msg->index] = true;
            --pending;
            const rvp::RunSpec &spec = runs[msg->index];
            std::optional<rvp::JournalRecord> rec =
                rvp::parseJournalRunLine(msg->record);
            std::string reason;
            if (!rec)
                reason = specId(spec) + ": unparsable result record";
            else if (msg->key != rvp::runSpecKey(spec))
                reason = specId(spec) + ": result key " + msg->key;
            else
                reason = refs_.check(specId(spec), rec->result);
            if (!reason.empty() && failure.empty())
                failure = id + ": " + reason;
            (msg->cached ? log.cachedMs : log.freshMs).push_back(ms);
            if (rec && !msg->cached)
                log.freshInsts += static_cast<double>(rec->result.committed);
        }
        log.submitMs.push_back(seconds(t0, Clock::now()) * 1e3);
        log.verdicts.push_back(failure);
    }

    static rvp::ServiceStatus
    status(rvp::ServiceClient &client)
    {
        if (!client.send(rvp::encodeStatusRequest()))
            return {};
        for (;;) {
            std::optional<rvp::ServerMsg> msg = client.recv();
            if (!msg)
                return {};
            if (msg->kind == rvp::ServerMsg::Kind::Status)
                return msg->status;
        }
    }

    const Options &opts_;
    const ReferenceTable &refs_;
    std::vector<rvp::RunSpec> pool_;
    std::vector<std::size_t> reads_;
    std::vector<std::size_t> writes_;
    std::string dir_;
    std::string socket_;
};

} // namespace

Outcome
runServiceMixed(const Options &opts, const ReferenceTable &refs)
{
    ServiceMixed svc(opts, refs);
    return opts.trace ? svc.traced() : svc.untraced();
}

} // namespace perfbench
