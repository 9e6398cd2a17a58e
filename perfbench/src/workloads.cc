#include "workloads.hh"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "api/check.hh"
#include "api/scenarios.hh"
#include "checker/state_store.hh"
#include "fuzz/case.hh"
#include "machine.hh"
#include "obligation/matrix.hh"
#include "obligation/universe.hh"
#include "replay.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "stats.hh"
#include "stream.hh"
#include "support/json.hh"
#include "support/json_parse.hh"
#include "support/resource.hh"
#include "trace.hh"

namespace perfbench
{

using namespace cxl;
using Clock = std::chrono::steady_clock;

namespace
{

// ------------------------------------------------------------ helpers

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double kMiB = 1024.0 * 1024.0;

/** Throwaway server set-ups timed before the checkd-mix passes, so
 * setup_s is a median over many set-ups. */
constexpr int kExtraSetups = 30;

/** swmr set-ups per pass (the last one's session runs the pass): a
 * model build takes ~0.1 ms, so setup_s needs many samples, taken
 * across the whole run rather than in one burst. */
constexpr int kSwmrSetupsPerPass = 8;

/**
 * Hands memory freed by the pass that just ended back to the system,
 * so each pass's peak RSS is its own and not the allocator's
 * retention from earlier passes in this process.
 */
void
releaseFreedMemory()
{
    ::malloc_trim(0);
}

/** Requests in one checkd-mix pass. */
constexpr std::size_t kPassRequests = 2000;

/** Peak anonymous RSS (the governor's meter) over a window, sampled
 * from a helper thread. */
class RssSampler
{
  public:
    RssSampler() = default;
    RssSampler(const RssSampler &) = delete;
    RssSampler &operator=(const RssSampler &) = delete;
    ~RssSampler()
    {
        if (thread_.joinable())
            stop();
    }

    void
    start()
    {
        peak_.store(currentAnonRssBytes(), std::memory_order_relaxed);
        running_ = true;
        thread_ = std::thread([this] {
            std::unique_lock<std::mutex> lock(mutex_);
            while (running_) {
                lock.unlock();
                sample();
                lock.lock();
                cv_.wait_for(lock, std::chrono::milliseconds(5),
                             [this] { return !running_; });
            }
        });
    }

    /** Ends the window; returns its peak in bytes. */
    std::uint64_t
    stop()
    {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            running_ = false;
        }
        cv_.notify_all();
        thread_.join();
        sample();
        return peak_.load(std::memory_order_relaxed);
    }

  private:
    void
    sample()
    {
        const std::uint64_t now = currentAnonRssBytes();
        std::uint64_t prev = peak_.load(std::memory_order_relaxed);
        while (now > prev &&
               !peak_.compare_exchange_weak(prev, now,
                                            std::memory_order_relaxed)) {
        }
    }

    std::mutex mutex_;
    std::condition_variable cv_;
    bool running_ = false;
    std::atomic<std::uint64_t> peak_{0};
    std::thread thread_;
};

/** Raw samples behind the end-to-end metrics. */
struct Samples {
    std::vector<double> setup;     ///< seconds per set-up
    std::vector<double> wall;      ///< seconds per unit of work
    std::vector<double> stateRate; ///< states/s per unit
    std::vector<double> reqRate;   ///< checks/s per unit
    std::vector<double> peakMb;    ///< peak anon RSS per unit
    std::vector<double> cold;      ///< ms per cold check
    std::vector<double> warm;      ///< ms per warm check
};

void
addMetric(Outcome &out, const std::string &name, const std::string &unit,
          double value, std::size_t samples = 0, double percentile = 0)
{
    out.metrics.push_back({name, unit, value, samples, percentile});
}

void
addLatency(Outcome &out, const std::string &prefix,
           const std::vector<double> &ms)
{
    addMetric(out, prefix + "_p50_ms", "ms", median(ms), ms.size(), 50);
    const Percentile t = tail(ms, 99);
    addMetric(out, prefix + "_p99_ms", "ms", t.value, t.samples,
              t.percentile);
}

std::string
jsonArray(const std::vector<double> &v)
{
    std::vector<std::string> items;
    for (double x : v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.9g", x);
        items.push_back(buf);
    }
    return JsonObject::array(items);
}

void
endToEnd(Outcome &out, const Samples &s)
{
    // The per-unit samples behind the medians, for the run record.
    JsonObject raw;
    raw.raw("setup_s", jsonArray(s.setup))
        .raw("wall_s", jsonArray(s.wall))
        .raw("states_per_s", jsonArray(s.stateRate))
        .raw("req_per_s", jsonArray(s.reqRate))
        .raw("peak_anon_rss_mb", jsonArray(s.peakMb));
    out.details.push_back({"unit_samples", raw.render()});

    addMetric(out, "setup_s", "s", median(s.setup), s.setup.size());
    addMetric(out, "wall_s", "s", median(s.wall), s.wall.size());
    addMetric(out, "states_per_s", "1/s", median(s.stateRate),
              s.stateRate.size());
    addMetric(out, "peak_anon_rss_mb", "MB", median(s.peakMb),
              s.peakMb.size());
    addLatency(out, "cold", s.cold);
    addLatency(out, "warm", s.warm);
    addMetric(out, "req_per_s", "1/s", median(s.reqRate),
              s.reqRate.size());
}

/** Records one output check. */
void
check(Outcome &out, bool ok, const std::string &what)
{
    ++out.attempted;
    if (!ok) {
        ++out.failed;
        out.correct = false;
        if (out.failures.size() < 20)
            out.failures.push_back(what);
    }
}

/** The free-run registry entry's configuration. */
const ProtocolConfig &
freeRunConfig()
{
    const scenarios::Entry *e = scenarios::byName("free-run");
    if (!e)
        throw std::runtime_error("registry has no free-run scenario");
    return e->config;
}

/**
 * Drains @p server once its workers are idle.  Server::beginDrain
 * sets the draining flag and notifies the workers' condition
 * variable without holding the queue mutex, so a worker that has
 * just checked its wait predicate can miss the wake-up and block
 * forever; giving idle workers time to reach their wait first keeps
 * the benchmark out of that window.
 */
void
drainIdle(serve::Server &server)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.drain();
}

std::string
socketPath(const RunOptions &opt, int n)
{
    return opt.workDir + "/checkd-" + std::to_string(::getpid()) + "-" +
           std::to_string(n) + ".sock";
}

/** Offline truth for a wire request: the same resolved request run
 * by a CheckSession, rendered deterministically. */
struct Offline {
    CheckResult result;
    double wall = 0;
};

Offline
runOffline(CheckSession &session, const serve::Request &wire,
           std::size_t threads)
{
    serve::ResolvedRequest rr =
        serve::resolveRequest(wire, EngineOptions{}, 0);
    rr.check.engine = rr.engine;
    if (threads != 0)
        rr.check.engine->threads = threads;
    const Clock::time_point t0 = Clock::now();
    Offline o;
    o.result = session.run(rr.check);
    o.wall = since(t0);
    return o;
}

/** What a served answer is checked against. */
struct Truth {
    std::string json;     ///< the offline renderJson(true)
    std::string scenario; ///< resolved scenario name
    std::uint64_t states = 0;
    /** False for capped parallel runs, whose counts depend on thread
     * timing: only their verdict is compared. */
    bool exact = true;
};

Truth
truthOf(const CheckResult &res)
{
    return {res.renderJson(true), res.scenario, res.states,
            res.verdict != CheckResult::Verdict::Incomplete ||
                res.threads == 1};
}

/** Offline truths of wire requests, each run once at its own knobs. */
class TruthCache
{
  public:
    const Truth &
    of(const serve::Request &request)
    {
        serve::Request key = request;
        key.id.clear();
        const std::string k = serve::renderRequestJson(key);
        auto it = truths_.find(k);
        if (it == truths_.end()) {
            it = truths_
                     .emplace(k, truthOf(runOffline(session_, request, 0)
                                             .result))
                     .first;
        }
        return it->second;
    }

  private:
    CheckSession session_;
    std::map<std::string, Truth> truths_;
};

/** The checkd-mix stream for @p seed, sized by @p cache's offline
 * runs (which then serve as the truth). */
RequestStream
checkdStream(std::uint64_t seed, TruthCache &cache)
{
    return makeRequestStream(seed, kPassRequests,
                             [&cache](const serve::Request &r) {
                                 return cache.of(r).states;
                             });
}

// --------------------------------------------------------- swmr runs

struct SwmrSpec {
    int devices;
    SymmetryMode symmetry;
    StoreKind store;
    std::uint64_t maxStates;    ///< 0 = complete run
    std::uint64_t expectStates; ///< complete runs: exact counts
    std::uint64_t expectTransitions;
};

const SwmrSpec kSwmr4Sym{4, SymmetryMode::On, StoreKind::InRam,
                         1'000'000, 0, 0};
const SwmrSpec kSwmr3NosymMmap{3, SymmetryMode::Off,
                               StoreKind::MmapCompact, 0, 860'925,
                               3'084'858};

serve::Request
swmrWire(const SwmrSpec &spec, std::size_t threads)
{
    serve::Request r;
    r.id = "swmr";
    r.scenario = "free-run";
    r.devices = spec.devices;
    r.engine.threads = threads;
    r.engine.symmetry = spec.symmetry;
    r.engine.store = spec.store;
    if (spec.maxStates != 0)
        r.engine.maxStates = spec.maxStates;
    r.deterministic = true;
    r.progress = false;
    return r;
}

/** Output check of one swmr exploration; "" when it passes. */
std::string
swmrVerdictProblem(const SwmrSpec &spec, const CheckResult &res,
                   std::size_t threads)
{
    if (spec.maxStates == 0) {
        if (res.verdict != CheckResult::Verdict::Holds ||
            res.states != spec.expectStates ||
            res.transitions != spec.expectTransitions) {
            return "expected HOLDS with " +
                   std::to_string(spec.expectStates) + " states / " +
                   std::to_string(spec.expectTransitions) +
                   " transitions, got " + res.verdictText();
        }
        return "";
    }
    const std::uint64_t slack = threads * kEngineFlushBatch;
    if (res.verdict != CheckResult::Verdict::Incomplete ||
        res.stopReason != StopReason::StateCap || res.violation ||
        res.states < spec.maxStates ||
        res.states > spec.maxStates + slack) {
        return "expected INCOMPLETE at the state cap with " +
               std::to_string(spec.maxStates) + ".." +
               std::to_string(spec.maxStates + slack) +
               " states, got " + res.verdictText() + " with " +
               std::to_string(res.states) + " states";
    }
    return "";
}

CheckRequest
resolvedCheck(const serve::Request &wire)
{
    serve::ResolvedRequest rr =
        serve::resolveRequest(wire, EngineOptions{}, 0);
    rr.check.engine = rr.engine;
    return rr.check;
}

Outcome
runSwmr(const RunOptions &opt, const SwmrSpec &spec)
{
    Outcome out;
    Samples s;
    const std::size_t nproc = onlineCpus();
    const CheckRequest req = resolvedCheck(swmrWire(spec, nproc));
    const ProtocolConfig &cfg = freeRunConfig();

    auto setUp = [&]() {
        const Clock::time_point t0 = Clock::now();
        auto session = std::make_unique<CheckSession>(*req.engine);
        session->ruleSet(cfg, spec.devices);
        session->invariantSet(cfg, spec.devices);
        s.setup.push_back(since(t0));
        return session;
    };
    const Clock::time_point start = Clock::now();
    do {
        std::unique_ptr<CheckSession> session;
        for (int i = 0; i < kSwmrSetupsPerPass; ++i)
            session = setUp();
        for (int phase = 0; phase < 2; ++phase) {
            RssSampler rss;
            rss.start();
            const Clock::time_point t0 = Clock::now();
            const CheckResult res = session->run(req);
            const double wall = since(t0);
            s.peakMb.push_back(static_cast<double>(rss.stop()) / kMiB);
            s.wall.push_back(wall);
            s.stateRate.push_back(static_cast<double>(res.states) /
                                  wall);
            s.reqRate.push_back(1.0 / wall);
            (phase == 0 ? s.cold : s.warm).push_back(wall * 1e3);
            const std::string problem =
                swmrVerdictProblem(spec, res, nproc);
            check(out, problem.empty(), problem);
        }
        session.reset();
        releaseFreedMemory();
    } while (since(start) < opt.seconds);
    endToEnd(out, s);
    return out;
}

// ------------------------------------------------------- checkd-mix

std::map<std::string, std::string>
loadGolden(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read golden verdicts '" + path +
                                 "'");
    std::map<std::string, std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        const auto colon = line.find(": ");
        if (colon != std::string::npos)
            lines[line.substr(0, colon)] = line;
    }
    return lines;
}

serve::ServerOptions
serverOptions(const std::string &socket)
{
    serve::ServerOptions so;
    so.socketPath = socket;
    so.workers = std::max<std::size_t>(1, onlineCpus() / 2);
    so.cacheEntries = 1u << 16;
    so.queueDepth = 64;
    return so;
}

struct Served {
    double ms = 0;
    bool ok = false;
    bool cached = false;
    std::string json;
    std::string verdictLine;
    std::string error;
};

/**
 * One closed-loop pass: @p clients threads each send the next
 * unclaimed position of @p order and wait for its answer.
 */
std::vector<Served>
servePass(const std::string &socket,
          const std::vector<serve::Request> &distinct,
          const std::vector<std::size_t> &order, std::size_t clients)
{
    std::vector<Served> served(order.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= order.size())
                    return;
                const Clock::time_point t0 = Clock::now();
                serve::ClientResult r =
                    serve::requestCheck(socket, distinct[order[i]]);
                Served &out = served[i];
                out.ms = since(t0) * 1e3;
                out.ok = r.ok;
                out.cached = r.cached;
                out.json = std::move(r.payload.resultJson);
                out.verdictLine = std::move(r.payload.verdictLine);
                out.error = std::move(r.error);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    return served;
}

/** Verifies served answers against the offline renders and the
 * registry goldens. */
void
checkServed(Outcome &out, const std::vector<Served> &served,
            const std::vector<std::size_t> &order,
            const std::vector<serve::Request> &distinct,
            const std::vector<Truth> &truths,
            const std::map<std::string, std::string> &golden)
{
    for (std::size_t i = 0; i < served.size(); ++i) {
        const Served &r = served[i];
        const std::size_t d = order[i];
        const serve::Request &req = distinct[d];
        if (!r.ok) {
            check(out, false, req.id + ": request failed: " + r.error);
            continue;
        }
        const Truth &truth = truths[d];
        bool ok = truth.exact
                      ? r.json == truth.json
                      : r.verdictLine.rfind("INCOMPLETE", 0) == 0;
        std::string what = req.id + ": served result differs from "
                                    "the offline run";
        if (ok && !req.scenario.empty() && req.devices == 2 &&
            !req.config && !req.families) {
            const auto g = golden.find(truth.scenario);
            ok = g != golden.end() &&
                 g->second == truth.scenario + ": " + r.verdictLine;
            what = req.id + ": verdict line '" + r.verdictLine +
                   "' differs from the golden one";
        }
        check(out, ok, what);
    }
}

Outcome
runCheckdMix(const RunOptions &opt)
{
    Outcome out;
    Samples s;
    const std::size_t clients =
        std::max<std::size_t>(1, onlineCpus() / 2);
    // Inputs first (untimed): the stream, sized and checked by
    // offline runs of its requests.
    TruthCache cache;
    const RequestStream stream = checkdStream(opt.seed, cache);
    std::vector<Truth> truths;
    for (const serve::Request &r : stream.distinct)
        truths.push_back(cache.of(r));
    const std::map<std::string, std::string> golden =
        loadGolden(opt.goldenPath);

    int servers = 0;
    auto setUp = [&]() {
        const Clock::time_point t0 = Clock::now();
        auto server = std::make_unique<serve::Server>(
            serverOptions(socketPath(opt, servers++)));
        server->start();
        s.setup.push_back(since(t0));
        return server;
    };
    for (int i = 0; i < kExtraSetups; ++i)
        drainIdle(*setUp());

    std::size_t passes = 0;
    const Clock::time_point start = Clock::now();
    do {
        std::unique_ptr<serve::Server> server = setUp();
        RssSampler rss;
        rss.start();
        const Clock::time_point t0 = Clock::now();
        const std::vector<Served> served = servePass(
            server->socketPath(), stream.distinct, stream.order, clients);
        const double wall = since(t0);
        s.peakMb.push_back(static_cast<double>(rss.stop()) / kMiB);
        drainIdle(*server);
        server.reset();

        double states = 0;
        for (std::size_t i = 0; i < served.size(); ++i) {
            (served[i].cached ? s.warm : s.cold).push_back(served[i].ms);
            if (!served[i].cached)
                states += static_cast<double>(truths[stream.order[i]].states);
        }
        checkServed(out, served, stream.order, stream.distinct, truths,
                    golden);
        s.wall.push_back(wall);
        s.stateRate.push_back(states / wall);
        s.reqRate.push_back(static_cast<double>(served.size()) / wall);
        ++passes;
        releaseFreedMemory();
    } while (since(start) < opt.seconds);
    endToEnd(out, s);
    out.details.push_back(
        {"stream", "{\"requests\": " + std::to_string(kPassRequests) +
                       ", \"distinct\": " +
                       std::to_string(stream.distinct.size()) +
                       ", \"clients\": " + std::to_string(clients) +
                       ", \"passes\": " +
                       std::to_string(passes) + "}"});
    return out;
}

// ------------------------------------------------------ paper-suite

/** Fixed inputs of the paper-facing pass. */
struct PaperInputs {
    struct Walk {
        std::string scenario;
        std::vector<std::string> steps;
    };
    Walk table1{"clean-evict",
                {"SharedEvict1", "HostSharedCleanEvictNotLastDrop1",
                 "SIA_GO_WritePullDrop1", "InvalidEvict1"}};
    Walk table2{"dirty-evict",
                {"ModifiedEvict1", "HostModifiedDirtyEvict1",
                 "MIA_GO_WritePull1", "HostID_Data1"}};
    Walk table3{"snoop-pushes-go",
                {"InvalidStore1", "InvalidLoad2", "HostInvalidRdShared2",
                 "HostSharedRdOwnSnp1", "ISADSnpInv2", "ISAD_GO_Data2",
                 "HostMA_RspIHitI1", "IMAD_GO_Data1"}};
    LitmusTest litmus1, litmus2;
    std::vector<LitmusTest> suite;
    /** Wire form of every CheckSession::run of the pass: the 162
     * deadlock-grid explorations, then Table 3's two BFS runs. */
    std::vector<serve::Request> runs;
    std::size_t gridRuns = 0;
    ObligationRequest obligations;
};

/** The super_sketch-size matrix: 11,792 cells, 77,208 states. */
constexpr std::size_t kExpectCells = 11'792;
constexpr std::size_t kExpectUniverse = 77'208;

PaperInputs
paperInputs(std::size_t threads)
{
    PaperInputs in;
    auto table_litmus = [](const char *scenario,
                           std::function<bool(const SystemState &)> f) {
        LitmusTest t;
        t.scenario = scenarios::byName(scenario)->build(2);
        t.name = t.scenario.name;
        t.finalCheck = std::move(f);
        return t;
    };
    in.litmus1 = table_litmus("clean-evict", [](const SystemState &s) {
        return s.dev[0].state == DState::I &&
               s.dev[1].state == DState::S && s.hstate == HState::S;
    });
    in.litmus2 = table_litmus("dirty-evict", [](const SystemState &s) {
        return s.dev[0].state == DState::I && s.hstate == HState::I &&
               s.hval == 1;
    });
    in.suite = builtinLitmusSuite();
    for (LitmusTest &t : restrictionRelaxationSuite())
        in.suite.push_back(std::move(t));

    // The deadlock grid: every pair of two-instruction programs over
    // {Load, Store, Evict} from both initial states.
    const Instr ops[] = {Instr::Load, Instr::Store, Instr::Evict};
    for (fuzz::InitKind init :
         {fuzz::InitKind::AllInvalid, fuzz::InitKind::BothShared}) {
        for (int p1 = 0; p1 < 9; ++p1) {
            for (int p2 = 0; p2 < 9; ++p2) {
                fuzz::FuzzCase c;
                c.devices = 2;
                c.init = init;
                c.programs = {{ops[p1 / 3], ops[p1 % 3]},
                              {ops[p2 / 3], ops[p2 % 3]}};
                serve::Request r;
                r.id = "grid" + std::to_string(in.runs.size());
                r.inlineCase = c;
                in.runs.push_back(std::move(r));
            }
        }
    }
    in.gridRuns = in.runs.size();
    serve::Request t3;
    t3.id = "table3-swmr";
    t3.scenario = "snoop-pushes-go";
    in.runs.push_back(t3);
    t3.id = "table3-full";
    t3.families = std::vector<std::string>{};
    in.runs.push_back(t3);
    for (serve::Request &r : in.runs) {
        r.engine.threads = threads;
        r.deterministic = true;
        r.progress = false;
    }

    in.obligations.universe.perturbationsPerSeed = 200;
    in.obligations.universe.maxStates = 700000;
    in.obligations.matrix.threads = threads;
    return in;
}

/** Output check of one paper-pass exploration. */
std::string
paperRunProblem(const PaperInputs &in, std::size_t i,
                const CheckResult &res)
{
    if (i < in.gridRuns) {
        return res.verdict == CheckResult::Verdict::Holds
                   ? ""
                   : "deadlock grid " + res.scenario + ": " +
                         res.verdictText();
    }
    const bool swmr_run = i == in.gridRuns;
    const bool ok =
        res.violation &&
        (swmr_run ? res.violation->conjunctName == "swmr_d1" &&
                        res.violation->depth == 8
                  : res.violation->depth < 8);
    return ok ? ""
              : std::string("Table 3 ") +
                    (swmr_run ? "SWMR run" : "full-invariant run") +
                    ": " + res.verdictText();
}

/**
 * One paper-facing pass through @p session; returns the explored
 * state count and adds the public calls made to @p calls.
 */
std::uint64_t
paperPass(CheckSession &session, const PaperInputs &in,
          const std::vector<CheckRequest> &runs, Outcome &out,
          std::size_t &calls)
{
    std::uint64_t states = 0;
    auto walk = [&](const PaperInputs::Walk &w, const char *table)
        -> std::vector<GuidedStep> {
        CheckRequest req;
        req.scenario = w.scenario;
        GuidedRun run;
        bool ok = true;
        ++calls;
        try {
            run = session.guided(req, w.steps);
        } catch (const std::exception &) {
            ok = false;
        }
        check(out, ok && run.steps.size() == w.steps.size() + 1,
              std::string(table) + ": guided walk did not complete");
        return run.steps;
    };
    auto litmus = [&](const LitmusTest &t, const std::string &label) {
        ++calls;
        const LitmusOutcome o = session.litmus(t);
        states += o.explore.numStates;
        check(out, o.passed, label + " " + t.name + ": " + o.message);
    };

    walk(in.table1, "Table 1");
    litmus(in.litmus1, "Table 1");
    walk(in.table2, "Table 2");
    litmus(in.litmus2, "Table 2");
    const std::vector<GuidedStep> t3 = walk(in.table3, "Table 3");
    check(out, !t3.empty() && !swmrHolds(t3.back().state),
          "Table 3: guided walk does not violate SWMR");
    for (const LitmusTest &t : in.suite)
        litmus(t, "litmus");
    for (std::size_t i = 0; i < runs.size(); ++i) {
        ++calls;
        const CheckResult res = session.run(runs[i]);
        states += res.states;
        const std::string problem = paperRunProblem(in, i, res);
        check(out, problem.empty(), problem);
    }
    ++calls;
    const ObligationResult obl = session.obligations(in.obligations);
    check(out,
          obl.matrix.totalCells() == kExpectCells &&
              obl.universeSize == kExpectUniverse,
          "obligation matrix: " +
              std::to_string(obl.matrix.totalCells()) + " cells over " +
              std::to_string(obl.universeSize) + " states");
    return states;
}

Outcome
runPaperSuite(const RunOptions &opt)
{
    Outcome out;
    Samples s;
    const std::size_t nproc = onlineCpus();
    const PaperInputs in = paperInputs(nproc);
    std::vector<CheckRequest> runs;
    for (const serve::Request &r : in.runs)
        runs.push_back(resolvedCheck(r));

    EngineOptions engine;
    engine.threads = nproc;
    auto setUp = [&]() {
        const Clock::time_point t0 = Clock::now();
        auto session = std::make_unique<CheckSession>(engine);
        session->ruleSet(ProtocolConfig::correct(), 2);
        session->invariantSet(ProtocolConfig::correct(), 2);
        // Builds (and caches) the boundary universe.
        session->obligations(in.obligations);
        s.setup.push_back(since(t0));
        return session;
    };

    const Clock::time_point start = Clock::now();
    do {
        std::unique_ptr<CheckSession> session = setUp();
        for (int phase = 0; phase < 2; ++phase) {
            RssSampler rss;
            rss.start();
            std::size_t calls = 0;
            const Clock::time_point t0 = Clock::now();
            const std::uint64_t states =
                paperPass(*session, in, runs, out, calls);
            const double wall = since(t0);
            s.peakMb.push_back(static_cast<double>(rss.stop()) / kMiB);
            s.wall.push_back(wall);
            (phase == 0 ? s.cold : s.warm).push_back(wall * 1e3);
            s.stateRate.push_back(static_cast<double>(states) / wall);
            s.reqRate.push_back(static_cast<double>(calls) / wall);
        }
        session.reset();
        releaseFreedMemory();
    } while (since(start) < opt.seconds);
    endToEnd(out, s);
    return out;
}

// ------------------------------------------------------ traced runs

/** What a workload hands the traced run. */
struct TraceSpec {
    /** The explorations the workload makes, in wire form. */
    std::vector<serve::Request> requests;
    /** checkd-mix: the stream order the serve pass replays (else
     * each request once cold, then once warm). */
    std::vector<std::size_t> order;
    std::size_t clients = 1;
    /** Per request, the output check ("" = pass). */
    std::function<std::string(std::size_t, const CheckResult &)> problem;
};

/** Milliseconds per fresh model build over the inputs' models. */
double
modelBuildMs(const std::vector<ReplayInput> &inputs,
             std::size_t &samples)
{
    std::set<std::pair<int, std::string>> seen;
    std::vector<std::pair<ProtocolConfig, int>> models;
    for (const ReplayInput &in : inputs) {
        const int d = in.scenario.numDevices();
        if (seen.insert({d, fuzz::configJson(in.config)}).second)
            models.push_back({in.config, d});
    }
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
        CheckSession session;
        for (const auto &[cfg, d] : models) {
            const Clock::time_point t0 = Clock::now();
            session.ruleSet(cfg, d);
            session.invariantSet(cfg, d);
            ms.push_back(since(t0) * 1e3);
        }
    }
    samples = ms.size();
    return median(ms);
}

Outcome
runTraced(const RunOptions &opt, const TraceSpec &spec)
{
    Outcome out;
    Tracer tr;
    const std::size_t nproc = onlineCpus();
    const std::size_t n = spec.requests.size();

    // ---- untraced engine runs: 1 thread and nproc threads ---------
    CheckSession session;
    std::vector<Offline> one(n), many(n);
    double wall1 = 0, explore1 = 0, exploreN = 0;
    {
        Scope s(tr, "engine_1thread");
        for (std::size_t i = 0; i < n; ++i) {
            one[i] = runOffline(session, spec.requests[i], 1);
            wall1 += one[i].wall;
            explore1 += one[i].result.seconds;
        }
    }
    {
        Scope s(tr, "engine_nproc");
        for (std::size_t i = 0; i < n; ++i) {
            many[i] = runOffline(session, spec.requests[i], nproc);
            exploreN += many[i].result.seconds;
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        for (const Offline *o : {&one[i], &many[i]}) {
            const std::string problem = spec.problem(i, o->result);
            check(out, problem.empty(), problem);
        }
    }
    // The request's own thread count is what serving it runs.
    auto own = [&](std::size_t i) -> const Offline & {
        return spec.requests[i].engine.threads.value_or(0) == 1
                   ? one[i]
                   : many[i];
    };

    // ---- the layer replay -----------------------------------------
    std::vector<ReplayInput> inputs;
    for (const serve::Request &r : spec.requests) {
        const serve::ResolvedRequest rr =
            serve::resolveRequest(r, EngineOptions{}, 0);
        inputs.push_back(resolveReplayInput(rr.check, rr.engine));
    }
    LayerReplay replay(session, tr);
    ReplayTotals tot;
    {
        Scope s(tr, "replay");
        for (std::size_t i = 0; i < n; ++i) {
            const ReplayTotals t = replay.run(inputs[i]);
            tot.add(t);
            const CheckResult &engine = one[i].result;
            check(out,
                  t.states == engine.states &&
                      t.transitions == engine.transitions &&
                      t.diameter == engine.diameter,
                  inputs[i].name + ": replay counted " +
                      std::to_string(t.states) + " states / " +
                      std::to_string(t.transitions) +
                      " transitions / diameter " +
                      std::to_string(t.diameter) + ", the engine " +
                      std::to_string(engine.states) + " / " +
                      std::to_string(engine.transitions) + " / " +
                      std::to_string(engine.diameter));
        }
    }

    // ---- store cold start: a fresh store absorbing 256 states -----
    std::vector<double> cold_ms;
    {
        std::vector<StateStore::BatchItem> items;
        for (const SystemState &st : replay.firstStates()) {
            StateStore::BatchItem item;
            item.state = st;
            item.hash = st.hash();
            items.push_back(std::move(item));
        }
        const StoreKind kind = inputs.front().store;
        for (int rep = 0; rep < 15; ++rep) {
            std::vector<StateStore::BatchItem> batch = items;
            Scope s(tr, "store_cold_start");
            const Clock::time_point t0 = Clock::now();
            StateStore store(StoreConfig{
                1 << 16,
                storeKindCompact(kind) ? StoreMode::Compact
                                       : StoreMode::Full,
                storeKindMmap(kind) ? StoreBackend::Mmap
                                    : StoreBackend::InRam,
                std::string(), 0});
            store.insertBatch(batch.data(), batch.size());
            cold_ms.push_back(since(t0) * 1e3);
        }
    }

    // ---- device canonicalisation cost per call --------------------
    double device_canon_ns = 0;
    if (tot.deviceCanonCalls > 0) {
        device_canon_ns = tot.deviceCanonSeconds * 1e9 /
                          static_cast<double>(tot.deviceCanonCalls);
    } else {
        // The workload never calls it: time it on a sample of the
        // workload's own successor states instead.
        Scope s(tr, "device_canon_probe");
        const Clock::time_point t0 = Clock::now();
        std::uint64_t sink = 0;
        for (const SystemState &st : replay.sampledEdges())
            sink += st.deviceCanonical(true, true).hash();
        device_canon_ns =
            since(t0) * 1e9 /
            static_cast<double>(
                std::max<std::size_t>(1, replay.sampledEdges().size()));
        out.details.push_back(
            {"device_canon_probe",
             "{\"states\": " +
                 std::to_string(replay.sampledEdges().size()) +
                 ", \"checksum\": " + std::to_string(sink) + "}"});
    }

    // ---- api: model build and rendering ---------------------------
    std::size_t model_samples = 0;
    double model_ms = 0;
    {
        Scope s(tr, "model_build");
        model_ms = modelBuildMs(inputs, model_samples);
    }
    std::vector<double> render_ms;
    {
        Scope s(tr, "render");
        std::size_t bytes = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const CheckResult &res = own(i).result;
            const Clock::time_point t0 = Clock::now();
            bytes += res.verdictText().size() + res.renderText().size() +
                     res.renderJson(true).size();
            render_ms.push_back(since(t0) * 1e3);
        }
        out.details.push_back(
            {"rendered_bytes", std::to_string(bytes)});
    }

    // ---- serve: one pass through an in-process daemon -------------
    double hit_ratio = 0, reuse_ratio = 0;
    std::vector<double> overhead_ms;
    {
        Scope s(tr, "serve_pass");
        serve::Server server(serverOptions(socketPath(opt, 0)));
        server.start();
        std::vector<std::size_t> order = spec.order;
        if (order.empty()) {
            for (int round = 0; round < 2; ++round)
                for (std::size_t i = 0; i < n; ++i)
                    order.push_back(i);
        }
        const std::vector<Served> served =
            servePass(server.socketPath(), spec.requests, order,
                      spec.clients);
        std::string error;
        const std::string stats =
            serve::fetchStats(server.socketPath(), error);
        drainIdle(server);
        std::vector<Truth> truths;
        for (std::size_t i = 0; i < n; ++i)
            truths.push_back(truthOf(own(i).result));
        checkServed(out, served, order, spec.requests, truths,
                    loadGolden(opt.goldenPath));
        for (std::size_t k = 0; k < served.size(); ++k) {
            if (served[k].ok && !served[k].cached)
                overhead_ms.push_back(served[k].ms -
                                      own(order[k]).wall * 1e3);
        }
        check(out, !stats.empty(), "stats request failed: " + error);
        if (!stats.empty()) {
            const JsonValue v = parseJson(stats);
            const double hits = v.getNum("cache_hits");
            const double misses = v.getNum("cache_misses");
            const double builds = v.getNum("model_builds");
            const double reuses = v.getNum("model_reuses");
            hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0;
            reuse_ratio =
                builds + reuses > 0 ? reuses / (builds + reuses) : 0;
            out.details.push_back({"serve_stats", stats});
        }
    }

    // ---- litmus and obligation: their paper inputs ----------------
    std::vector<double> litmus_ms, matrix_ms;
    double universe_ms = 0;
    std::size_t cells = 0;
    {
        CheckSession paper;
        const PaperInputs pin = paperInputs(nproc);
        for (int rep = 0; rep < 3; ++rep) {
            Scope s(tr, "litmus_suite");
            const Clock::time_point t0 = Clock::now();
            bool ok = true;
            for (const LitmusTest &t : pin.suite)
                ok = paper.litmus(t).passed && ok;
            litmus_ms.push_back(since(t0) * 1e3);
            check(out, ok, "litmus suite failed");
        }
        const RuleSet &rules = paper.ruleSet(ProtocolConfig::correct(), 2);
        const InvariantSet &inv =
            paper.invariantSet(ProtocolConfig::correct(), 2);
        const Scenario scenario = Scenario::freeRunScenario(2);
        std::vector<SystemState> universe;
        {
            Scope s(tr, "universe_build");
            const Clock::time_point t0 = Clock::now();
            universe = buildUniverse(rules, scenario, inv,
                                     pin.obligations.universe);
            universe_ms = since(t0) * 1e3;
        }
        for (int rep = 0; rep < 3; ++rep) {
            Scope s(tr, "matrix");
            const MatrixResult m = checkObligationMatrix(
                rules, scenario, inv, universe, pin.obligations.matrix);
            matrix_ms.push_back(m.seconds * 1e3);
            cells = m.totalCells();
        }
        check(out, cells == kExpectCells && universe.size() == kExpectUniverse,
              "obligation matrix: " + std::to_string(cells) +
                  " cells over " + std::to_string(universe.size()) +
                  " states");
    }

    // ---- per-layer metrics ----------------------------------------
    const double edges = static_cast<double>(std::max<std::uint64_t>(
        1, tot.transitions));
    const double expanded =
        static_cast<double>(std::max<std::uint64_t>(1, tot.expanded));
    auto per = [](double seconds, double count) {
        return count > 0 ? seconds * 1e9 / count : 0.0;
    };
    addMetric(out, "protocol.successors_ns", "ns",
              per(tot.successorsSeconds, expanded), tot.expanded);
    addMetric(out, "protocol.fanout", "count",
              static_cast<double>(tot.transitions) / expanded);
    addMetric(out, "protocol.tid_canon_ns", "ns",
              per(tot.tidCanonSeconds, edges), tot.transitions);
    addMetric(out, "protocol.hash_ns", "ns", per(tot.hashSeconds, edges),
              tot.transitions);
    addMetric(out, "protocol.device_canon_ns", "ns", device_canon_ns);
    addMetric(out, "protocol.device_canon_calls", "count",
              static_cast<double>(tot.deviceCanonCalls));
    addMetric(out, "invariants.eval_ns", "ns",
              per(tot.invariantsSeconds, static_cast<double>(tot.evals)),
              tot.evals);
    addMetric(out, "invariants.evals", "count",
              static_cast<double>(tot.evals));
    addMetric(out, "checker.store_insert_ns", "ns",
              per(tot.insertSeconds, edges), tot.transitions);
    addMetric(out, "checker.store_new_ratio", "ratio",
              static_cast<double>(tot.newStates) / edges);
    addMetric(out, "checker.store_fetch_ns", "ns",
              per(tot.fetchSeconds, expanded), tot.expanded);
    addMetric(out, "checker.store_cold_start_ms", "ms", median(cold_ms),
              cold_ms.size());
    addMetric(out, "checker.store_bytes_per_state", "B/state",
              static_cast<double>(tot.storeBytes) /
                  static_cast<double>(
                      std::max<std::uint64_t>(1, tot.states)));
    addMetric(out, "checker.store_mapped_mb", "MB",
              static_cast<double>(tot.mappedHighBytes) / kMiB);
    addMetric(out, "checker.parallel_efficiency", "ratio",
              exploreN > 0 ? explore1 / (static_cast<double>(nproc) *
                                         exploreN)
                           : 0.0);
    addMetric(out, "api.model_build_ms", "ms", model_ms, model_samples);
    addMetric(out, "api.render_ms", "ms", median(render_ms),
              render_ms.size());
    addMetric(out, "serve.cache_hit_ratio", "ratio", hit_ratio);
    addMetric(out, "serve.model_reuse_ratio", "ratio", reuse_ratio);
    addMetric(out, "serve.overhead_ms", "ms", median(overhead_ms),
              overhead_ms.size(), 50);
    addMetric(out, "litmus.suite_ms", "ms", median(litmus_ms),
              litmus_ms.size());
    addMetric(out, "obligation.universe_build_ms", "ms", universe_ms);
    addMetric(out, "obligation.matrix_ms", "ms", median(matrix_ms),
              matrix_ms.size());
    addMetric(out, "obligation.cells", "count",
              static_cast<double>(cells));
    addMetric(out, "trace.coverage", "ratio",
              tot.wallSeconds > 0 ? tot.stageSeconds() / tot.wallSeconds
                                  : 0.0);
    addMetric(out, "trace.overhead_ms", "ms",
              (tot.wallSeconds - wall1) * 1e3);

    // ---- spans and the self-time table, written at exit -----------
    const std::vector<SelfTime> table = selfTimeTable(tr.spans());
    const std::string table_text =
        renderSelfTimeTable(table, tr.now());
    std::printf("%s", table_text.c_str());
    const std::string path = opt.workDir + "/trace-" + opt.workload +
                             "-s" + std::to_string(opt.seed) + ".json";
    JsonObject doc;
    {
        std::vector<std::string> rows;
        for (const SelfTime &row : table) {
            JsonObject o;
            o.str("name", row.name)
                .num("count", static_cast<std::uint64_t>(row.count))
                .num("total_s", row.total)
                .num("self_s", row.self);
            rows.push_back(o.render());
        }
        doc.str("workload", opt.workload)
            .num("seed", opt.seed)
            .num("replay_states", tot.states)
            .num("replay_transitions", tot.transitions)
            .raw("self_time", JsonObject::array(rows))
            .raw("spans", tr.renderJson());
    }
    writeJsonFile(path, doc);
    out.details.push_back({"trace_file", JsonObject::quote(path)});
    return out;
}

TraceSpec
swmrTraceSpec(const SwmrSpec &spec)
{
    TraceSpec t;
    t.requests.push_back(swmrWire(spec, onlineCpus()));
    t.problem = [spec](std::size_t, const CheckResult &res) {
        return swmrVerdictProblem(spec, res, res.threads);
    };
    return t;
}

} // namespace

// ------------------------------------------------------------- entry

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "swmr4-sym", "swmr3-nosym-mmap", "checkd-mix", "paper-suite"};
    return names;
}

Outcome
runWorkload(const RunOptions &opt)
{
    if (opt.workload == "swmr4-sym" || opt.workload == "swmr3-nosym-mmap") {
        const SwmrSpec &spec =
            opt.workload == "swmr4-sym" ? kSwmr4Sym : kSwmr3NosymMmap;
        return opt.trace ? runTraced(opt, swmrTraceSpec(spec))
                         : runSwmr(opt, spec);
    }
    if (opt.workload == "checkd-mix") {
        if (!opt.trace)
            return runCheckdMix(opt);
        TruthCache cache;
        const RequestStream stream = checkdStream(opt.seed, cache);
        TraceSpec t;
        t.requests = stream.distinct;
        t.order = stream.order;
        t.clients = std::max<std::size_t>(1, onlineCpus() / 2);
        t.problem = [](std::size_t, const CheckResult &res) {
            return res.verdict == CheckResult::Verdict::Incomplete &&
                           res.stopReason != StopReason::StateCap
                       ? res.scenario + ": stopped by a budget"
                       : std::string();
        };
        return runTraced(opt, t);
    }
    if (opt.workload == "paper-suite") {
        if (!opt.trace)
            return runPaperSuite(opt);
        auto in = std::make_shared<PaperInputs>(paperInputs(onlineCpus()));
        TraceSpec t;
        t.requests = in->runs;
        t.problem = [in](std::size_t i, const CheckResult &res) {
            return paperRunProblem(*in, i, res);
        };
        return runTraced(opt, t);
    }
    throw std::runtime_error("unknown workload '" + opt.workload + "'");
}

} // namespace perfbench
