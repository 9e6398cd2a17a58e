/**
 * @file
 * E11 — microbenchmarks (google-benchmark) backing the proof-scale
 * discussion of paper Section 6: state hashing, tid canonicalisation,
 * successor enumeration, invariant evaluation, store insertion, and
 * end-to-end exhaustive verification throughput.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/check.hh"
#include "bench_common.hh"
#include "checker/state_store.hh"

using namespace cxl;

namespace
{

SystemState
busyState()
{
    SystemState s = initialBothShared(1);
    s.dev[0].state = DState::SMAD;
    s.dev[0].d2hReq.pushBack({D2HReqOp::RdOwn, 0});
    s.dev[1].h2dReq.pushBack({H2DReqOp::SnpInv, 1});
    s.dev[1].h2dData.pushBack({1, 1, 0});
    s.counter = 2;
    return s;
}

void
BM_StateHash(benchmark::State &state)
{
    SystemState s = busyState();
    for (auto _ : state) {
        benchmark::DoNotOptimize(s.hash());
        s.counter ^= 1; // defeat value caching
    }
}
BENCHMARK(BM_StateHash);

void
BM_StateFingerprint(benchmark::State &state)
{
    // The second hash paid per successor in hash-compaction mode.
    SystemState s = busyState();
    for (auto _ : state) {
        benchmark::DoNotOptimize(s.fingerprint());
        s.counter ^= 1;
    }
}
BENCHMARK(BM_StateFingerprint);

void
BM_DeviceCanonical(benchmark::State &state)
{
    // The symmetry-reduction hot path: ndev! images with early-abort
    // comparison; the argument is the device count.
    const int ndev = static_cast<int>(state.range(0));
    SystemState s = initialBothShared(1, ndev);
    s.dev[0].state = DState::SMAD;
    s.dev[0].d2hReq.pushBack({D2HReqOp::RdOwn, 0});
    s.dev[1].h2dReq.pushBack({H2DReqOp::SnpInv, 1});
    s.counter = 2;
    s.canonicaliseTids();
    for (auto _ : state) {
        benchmark::DoNotOptimize(s.deviceCanonical(true, true));
        s.dev[ndev - 1].pc ^= 1; // defeat value caching
    }
}
BENCHMARK(BM_DeviceCanonical)->Arg(2)->Arg(3)->Arg(4);

void
BM_CanonicaliseTids(benchmark::State &state)
{
    SystemState s = busyState();
    for (auto _ : state) {
        SystemState copy = s;
        copy.canonicaliseTids();
        benchmark::DoNotOptimize(copy);
    }
}
BENCHMARK(BM_CanonicaliseTids);

void
BM_SuccessorEnumeration(benchmark::State &state)
{
    CheckSession session;
    const RuleSet &rules = session.ruleSet(ProtocolConfig::correct());
    Scenario sc = Scenario::freeRunScenario();
    SystemState s = busyState();
    for (auto _ : state) {
        auto succs = rules.successors(s, sc, true);
        benchmark::DoNotOptimize(succs);
    }
}
BENCHMARK(BM_SuccessorEnumeration);

void
BM_InvariantEvaluation(benchmark::State &state)
{
    CheckSession session;
    const InvariantSet &inv =
        session.invariantSet(ProtocolConfig::correct());
    Scenario sc = Scenario::freeRunScenario();
    Context ctx{&sc};
    SystemState s = busyState();
    for (auto _ : state)
        benchmark::DoNotOptimize(inv.firstFailure(s, ctx));
}
BENCHMARK(BM_InvariantEvaluation);

/** Distinct state #i of the store benches (i < 2^24). */
SystemState
distinctState(std::uint32_t i)
{
    SystemState s;
    s.counter = static_cast<std::uint8_t>(i);
    s.dev[0].pc = static_cast<std::uint8_t>(i >> 8);
    s.dev[1].pc = static_cast<std::uint8_t>(i >> 16);
    return s;
}

/** The default store configuration in @p mode. */
StoreConfig
defaultConfig(StoreMode mode)
{
    StoreConfig config;
    config.mode = mode;
    return config;
}

std::vector<StateStore::BatchItem>
distinctItems(std::uint32_t first, std::uint32_t count)
{
    std::vector<StateStore::BatchItem> items(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        items[i].state = distinctState(first + i);
        items[i].hash = items[i].state.hash();
    }
    return items;
}

/**
 * Store cold start: construct a store, insert the argument's number
 * of distinct states, destroy it — the fixed cost every tiny check
 * (registry scenarios, litmus tests, daemon requests) pays.
 */
void
storeColdStart(benchmark::State &state, StoreMode mode)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const std::vector<StateStore::BatchItem> items =
        distinctItems(0, n);
    for (auto _ : state) {
        StateStore store(defaultConfig(mode));
        for (const StateStore::BatchItem &item : items) {
            store.insert(item.state, item.hash, StateStore::kNoParent,
                         0, 0);
        }
        benchmark::DoNotOptimize(store.size());
    }
    state.SetItemsProcessed(state.iterations() * n);
}

void
BM_StateStoreColdStart(benchmark::State &state)
{
    storeColdStart(state, StoreMode::Full);
}
BENCHMARK(BM_StateStoreColdStart)->Arg(8)->Arg(30)->Arg(256);

void
BM_StateStoreColdStartCompact(benchmark::State &state)
{
    storeColdStart(state, StoreMode::Compact);
}
BENCHMARK(BM_StateStoreColdStartCompact)->Arg(8)->Arg(30)->Arg(256);

/**
 * Steady-state insertion: fresh states into a store pre-warmed with
 * 2^16 entries, 256 per iteration (one insertBatch call when
 * @p batched, else 256 single-lock inserts).  Warming happens outside
 * the timed region, and the store is re-warmed every 2^15 fresh
 * inserts so memory stays bounded.
 */
void
storeWarmInsert(benchmark::State &state, StoreMode mode, bool batched)
{
    constexpr std::uint32_t kWarm = 1u << 16;
    constexpr std::uint32_t kFresh = 1u << 15;
    constexpr std::uint32_t kBatch = 256;
    const std::vector<StateStore::BatchItem> warm =
        distinctItems(0, kWarm);
    std::vector<StateStore::BatchItem> fresh =
        distinctItems(kWarm, kFresh);
    std::unique_ptr<StateStore> store;
    std::uint32_t next = kFresh;
    for (auto _ : state) {
        if (next == kFresh) {
            state.PauseTiming();
            store.reset();
            store = std::make_unique<StateStore>(defaultConfig(mode));
            for (const StateStore::BatchItem &item : warm) {
                store->insert(item.state, item.hash,
                              StateStore::kNoParent, 0, 0);
            }
            next = 0;
            state.ResumeTiming();
        }
        StateStore::BatchItem *items = fresh.data() + next;
        if (batched) {
            store->insertBatch(items, kBatch);
        } else {
            for (std::uint32_t i = 0; i < kBatch; ++i) {
                store->insert(items[i].state, items[i].hash,
                              StateStore::kNoParent, 0, 0);
            }
        }
        next += kBatch;
        benchmark::DoNotOptimize(store->size());
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
}

void
BM_StateStoreWarmInsert(benchmark::State &state)
{
    storeWarmInsert(state, StoreMode::Full, false);
}
BENCHMARK(BM_StateStoreWarmInsert);

void
BM_StateStoreWarmInsertCompact(benchmark::State &state)
{
    storeWarmInsert(state, StoreMode::Compact, false);
}
BENCHMARK(BM_StateStoreWarmInsertCompact);

void
BM_StateStoreWarmInsertBatched(benchmark::State &state)
{
    storeWarmInsert(state, StoreMode::Full, true);
}
BENCHMARK(BM_StateStoreWarmInsertBatched);

void
BM_ExhaustiveSwmrVerification(benchmark::State &state)
{
    // End-to-end Theorem 6.2 through the session façade: the full
    // free-run space with all conjuncts checked on every state.
    CheckSession session;
    CheckRequest req;
    req.scenario = "free-run";
    std::uint64_t states = 0;
    for (auto _ : state) {
        CheckResult res = session.run(req);
        states = res.states;
        benchmark::DoNotOptimize(res.states);
    }
    state.SetItemsProcessed(state.iterations() * states);
    state.counters["reachable_states"] =
        static_cast<double>(states);
}
BENCHMARK(BM_ExhaustiveSwmrVerification)->Unit(benchmark::kMillisecond);

void
BM_ParallelSwmrVerification(benchmark::State &state)
{
    // The same end-to-end run through the depth-synchronized
    // parallel engine; the argument is the worker-thread count.
    CheckSession session;
    CheckRequest req;
    req.scenario = "free-run";
    EngineOptions engine;
    engine.threads = static_cast<std::size_t>(state.range(0));
    req.engine = engine;
    std::uint64_t states = 0;
    for (auto _ : state) {
        CheckResult res = session.run(req);
        states = res.states;
        benchmark::DoNotOptimize(res.states);
    }
    state.SetItemsProcessed(state.iterations() * states);
}
BENCHMARK(BM_ParallelSwmrVerification)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_LitmusExhaustive(benchmark::State &state)
{
    // The alternating_ops scenario: the largest litmus state space.
    CheckSession session;
    CheckRequest req;
    req.scenario = "alternating_ops";
    for (auto _ : state) {
        CheckResult res = session.run(req);
        benchmark::DoNotOptimize(res.states);
    }
}
BENCHMARK(BM_LitmusExhaustive)->Unit(benchmark::kMillisecond);

/**
 * Console reporter that also captures every finished run, so a
 * `--json <path>` invocation can drop BENCH_micro.json next to the
 * human-readable table (names, per-iteration real/cpu time, items/sec
 * and custom counters, plus the process peak RSS).
 */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &report) override
    {
        for (const Run &run : report)
            runs_.push_back(run);
        ConsoleReporter::ReportRuns(report);
    }

    void
    writeJson(const std::string &path) const
    {
        std::vector<std::string> rows;
        for (const Run &run : runs_) {
            if (run.error_occurred)
                continue;
            cxl::bench::JsonObject row;
            const double iters =
                run.iterations > 0
                    ? static_cast<double>(run.iterations)
                    : 1.0;
            row.str("name", run.benchmark_name())
                .num("iterations",
                     static_cast<std::uint64_t>(run.iterations))
                .num("real_ns_per_iter",
                     run.real_accumulated_time * 1e9 / iters)
                .num("cpu_ns_per_iter",
                     run.cpu_accumulated_time * 1e9 / iters);
            for (const auto &[name, counter] : run.counters)
                row.num(name, static_cast<double>(counter));
            rows.push_back(row.render());
        }
        cxl::bench::JsonObject json;
        json.str("bench", "perf_micro")
            .num("peak_rss_bytes", cxl::bench::peakRssBytes())
            .raw("benchmarks", cxl::bench::JsonObject::array(rows));
        cxl::bench::writeJsonFile(path, json);
    }

  private:
    std::vector<Run> runs_;
};

} // namespace

int
main(int argc, char **argv)
{
    // Intercept the repo-wide `--json <path>` / `--json=<path>` flag
    // before google-benchmark rejects it as unrecognised.
    std::string json_path;
    std::vector<char *> passthrough;
    for (int i = 0; i < argc; ++i) {
        if (i > 0 && std::strcmp(argv[i], "--json") == 0 &&
            i + 1 < argc) {
            json_path = argv[++i];
            continue;
        }
        if (i > 0 && std::strncmp(argv[i], "--json=", 7) == 0) {
            json_path = argv[i] + 7;
            continue;
        }
        passthrough.push_back(argv[i]);
    }
    int pass_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&pass_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                               passthrough.data()))
        return 1;

    CapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    if (!json_path.empty())
        reporter.writeJson(json_path);
    benchmark::Shutdown();
    return 0;
}
