/**
 * @file
 * Backend conformance suite for the layered visited-state store: the
 * four StoreKinds (ram, ram-compact, mmap, mmap-compact) must present
 * identical packed-id semantics through the StateStore façade —
 * insert/lookup/dedup, depth relabeling, seal/retention per kind's
 * contract, the StoreFullError capacity path (store-level and through
 * both engines), forged probe-hash collision detection, round trips
 * across every segment boundary of the columns' ramps, lock-free depth
 * reads during appends, and a footprint that tracks the states held —
 * and the engines must produce bit-identical state/transition counts
 * on every kind at 2-device and symmetry-reduced 3-device spaces.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "checker/explorer.hh"
#include "checker/state_store.hh"
#include "checker/store_segments.hh"
#include "support/hash.hh"

#if defined(__unix__)
#include <unistd.h>
#endif

namespace cxl
{
namespace
{

struct Kind {
    const char *name;
    StoreMode mode;
    StoreBackend backend;
};

const Kind kKinds[] = {
    {"ram", StoreMode::Full, StoreBackend::InRam},
    {"ram-compact", StoreMode::Compact, StoreBackend::InRam},
    {"mmap", StoreMode::Full, StoreBackend::Mmap},
    {"mmap-compact", StoreMode::Compact, StoreBackend::Mmap},
};

StoreConfig
configOf(const Kind &k, std::uint64_t capacity = 0,
         std::string dir = std::string())
{
    StoreConfig config;
    config.mode = k.mode;
    config.backend = k.backend;
    config.dir = std::move(dir);
    config.capacityLimit = capacity;
    return config;
}

/** A distinct, moderately busy state per index. */
SystemState
probeState(int i)
{
    SystemState s;
    s.counter = static_cast<std::uint8_t>(i & 0xff);
    s.dev[0].val = static_cast<Val>((i >> 8) & 0xff);
    s.dev[1].val = static_cast<Val>(i >> 16);
    s.dev[0].d2hReq.pushBack(
        {D2HReqOp::RdShared, static_cast<Tid>(i & 3)});
    s.dev[1].h2dData.pushBack({0, static_cast<Val>(i & 0x7f), 0});
    return s;
}

/** Forged probe hash that routes every index to shard 0, so one
 * shard accumulates enough entries to fill and drop arena blocks. */
std::uint64_t
shardZeroHash(int i)
{
    return mix64(static_cast<std::uint64_t>(i)) >> 4;
}

TEST(StoreBackend, InsertLookupDedupAndBreadcrumbs)
{
    const int n = 2000;
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        std::vector<std::uint32_t> ids;
        for (int i = 0; i < n; ++i) {
            auto [id, fresh] = store.insert(
                probeState(i), StateStore::kNoParent,
                static_cast<std::uint16_t>(i & 0x3f),
                static_cast<std::uint32_t>(i & 7));
            ASSERT_TRUE(fresh) << k.name << " i=" << i;
            ids.push_back(id);
        }
        EXPECT_EQ(store.size(), static_cast<std::size_t>(n))
            << k.name;
        // Re-inserting every state dedups onto the original id.
        for (int i = 0; i < n; ++i) {
            auto [id, fresh] = store.insert(
                probeState(i), StateStore::kNoParent, 0,
                static_cast<std::uint32_t>(i & 7));
            EXPECT_FALSE(fresh) << k.name << " i=" << i;
            EXPECT_EQ(id, ids[static_cast<std::size_t>(i)])
                << k.name << " i=" << i;
        }
        EXPECT_EQ(store.size(), static_cast<std::size_t>(n))
            << k.name;
        // Bytes round-trip and the breadcrumbs stuck.
        for (int i = 0; i < n; i += 97) {
            const std::uint32_t id =
                ids[static_cast<std::size_t>(i)];
            SystemState decoded;
            store.stateInto(id, decoded);
            EXPECT_TRUE(decoded == probeState(i))
                << k.name << " i=" << i;
            EXPECT_EQ(store.ruleAt(id),
                      static_cast<std::uint16_t>(i & 0x3f))
                << k.name;
            EXPECT_EQ(store.depthAt(id),
                      static_cast<std::uint32_t>(i & 7))
                << k.name;
            EXPECT_EQ(store.parentAt(id), StateStore::kNoParent)
                << k.name;
        }
    }
}

TEST(StoreBackend, BatchRelabelImprovesDepthOnEveryKind)
{
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        auto [root, fresh_root] =
            store.insert(probeState(0), StateStore::kNoParent, 0, 0);
        ASSERT_TRUE(fresh_root) << k.name;
        auto [id, fresh] = store.insert(probeState(1), root, 7, 9);
        ASSERT_TRUE(fresh) << k.name;
        EXPECT_EQ(store.depthAt(id), 9u) << k.name;

        // A duplicate at a smaller depth relabels depth, parent and
        // rule in place and reports improved.
        StateStore::BatchItem item;
        item.state = probeState(1);
        item.hash = item.state.hash();
        item.parent = root;
        item.rule = 3;
        item.depth = 2;
        store.insertBatch(&item, 1);
        EXPECT_FALSE(item.inserted) << k.name;
        EXPECT_TRUE(item.improved) << k.name;
        EXPECT_EQ(item.id, id) << k.name;
        EXPECT_EQ(store.depthAt(id), 2u) << k.name;
        EXPECT_EQ(store.parentAt(id), root) << k.name;
        EXPECT_EQ(store.ruleAt(id), 3u) << k.name;

        // A duplicate at a larger depth changes nothing.
        item.depth = 5;
        item.rule = 11;
        store.insertBatch(&item, 1);
        EXPECT_FALSE(item.inserted) << k.name;
        EXPECT_FALSE(item.improved) << k.name;
        EXPECT_EQ(store.depthAt(id), 2u) << k.name;
        EXPECT_EQ(store.ruleAt(id), 3u) << k.name;
    }
}

TEST(StoreBackend, SealRetentionFollowsEachKindsContract)
{
    // Enough shard-0 entries that whole arena blocks fall below two
    // seal boundaries: full blocks hold 2^12..2^13 entries, compact
    // blocks 2^18 bytes of cells.
    const int n = 40000;
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        std::vector<std::uint32_t> ids;
        for (int i = 0; i < n; ++i) {
            ids.push_back(store
                              .insert(probeState(i), shardZeroHash(i),
                                      StateStore::kNoParent, 0, 0)
                              .first);
        }
        store.sealLevel();
        store.sealLevel();

        const bool readable = store.statesAlwaysReadable();
        EXPECT_EQ(readable,
                  k.mode == StoreMode::Full ||
                      k.backend == StoreBackend::Mmap)
            << k.name;
        EXPECT_EQ(store.stateRetained(ids.front()), readable)
            << k.name;
        EXPECT_TRUE(store.stateRetained(ids.back())) << k.name;
        if (readable) {
            // Sealed entries stay decodable — recoverable backends
            // remap the dropped block on demand.
            SystemState decoded;
            store.stateInto(ids.front(), decoded);
            EXPECT_TRUE(decoded == probeState(0)) << k.name;
        }

        // Deduplication survives sealing on every kind (fingerprint
        // identity where the bytes are cold).
        auto [id, fresh] = store.insert(
            probeState(0), shardZeroHash(0), StateStore::kNoParent,
            0, 0);
        EXPECT_FALSE(fresh) << k.name;
        EXPECT_EQ(id, ids.front()) << k.name;
        EXPECT_EQ(store.size(), static_cast<std::size_t>(n))
            << k.name;
    }
}

#if defined(__linux__)
TEST(StoreBackend, MmapKindsReportAndReleaseMappedBytes)
{
    const int n = 40000;
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        for (int i = 0; i < n; ++i) {
            store.insert(probeState(i), shardZeroHash(i),
                         StateStore::kNoParent, 0, 0);
        }
        if (k.backend == StoreBackend::InRam) {
            EXPECT_EQ(store.mappedBytes(), 0u) << k.name;
            EXPECT_EQ(store.backingFileBytes(), 0u) << k.name;
            continue;
        }
        const std::uint64_t mapped = store.mappedBytes();
        EXPECT_GT(mapped, 0u) << k.name;
        EXPECT_GT(store.backingFileBytes(), 0u) << k.name;
        // Two seals drop every full block below the first boundary:
        // the mapped window shrinks, the backing file does not.
        const std::uint64_t file_before = store.backingFileBytes();
        store.sealLevel();
        store.sealLevel();
        EXPECT_LT(store.mappedBytes(), mapped) << k.name;
        EXPECT_GE(store.backingFileBytes(), file_before) << k.name;
    }
}

TEST(StoreBackend, StoreDirBacksShardFiles)
{
    char tmpl[] = "/tmp/cxl-store-XXXXXX";
    char *dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    {
        StateStore store(configOf(kKinds[2], 0, dir)); // mmap full
        for (int i = 0; i < 5000; ++i) {
            store.insert(probeState(i), StateStore::kNoParent, 0, 0);
        }
        EXPECT_GT(store.mappedBytes(), 0u);
        EXPECT_GT(store.backingFileBytes(), 0u);
        SystemState decoded;
        auto [id, fresh] =
            store.insert(probeState(1), StateStore::kNoParent, 0, 0);
        EXPECT_FALSE(fresh);
        store.stateInto(id, decoded);
        EXPECT_TRUE(decoded == probeState(1));
    }
    // Backing files are unlinked (O_TMPFILE/unlinked tempfile), so
    // the directory is removable once the store is gone.
    EXPECT_EQ(rmdir(dir), 0);
}
#endif // __linux__

TEST(StoreBackend, CapacityThrowsStoreFullErrorOnEveryKind)
{
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k, /*capacity=*/16)); // 1 per shard
        bool threw = false;
        try {
            for (int i = 0; i < 64; ++i) {
                store.insert(probeState(i), StateStore::kNoParent, 0,
                             0);
            }
        } catch (const StoreFullError &e) {
            threw = true;
            const std::string what = e.what();
            EXPECT_NE(what.find("per-shard limit 1 entries"),
                      std::string::npos)
                << k.name << ": " << what;
            EXPECT_NE(what.find("--store=ram|ram-compact|mmap|"
                                "mmap-compact"),
                      std::string::npos)
                << k.name << ": " << what;
        }
        EXPECT_TRUE(threw) << k.name;
    }
}

TEST(StoreBackend, ForgedProbeHashCollisionDetectedOnEveryKind)
{
    SystemState a = initialAllInvalid();
    SystemState b = initialBothShared(1);
    ASSERT_FALSE(a == b);
    const std::uint64_t forged = 0x1234567890abcdefull;
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        auto [ia, new_a] =
            store.insert(a, forged, StateStore::kNoParent, 0, 0);
        auto [ib, new_b] =
            store.insert(b, forged, StateStore::kNoParent, 0, 0);
        EXPECT_TRUE(new_a) << k.name;
        EXPECT_TRUE(new_b) << k.name << ": silently merged";
        EXPECT_NE(ia, ib) << k.name;
        EXPECT_GE(store.probeCollisions(), 1u) << k.name;
        // The collision survives a seal: cold-entry identity falls
        // back to the verification fingerprint, which still tells
        // the two states apart.
        store.sealLevel();
        store.sealLevel();
        auto [ia2, dup_a] =
            store.insert(a, forged, StateStore::kNoParent, 0, 0);
        auto [ib2, dup_b] =
            store.insert(b, forged, StateStore::kNoParent, 0, 0);
        EXPECT_FALSE(dup_a) << k.name;
        EXPECT_FALSE(dup_b) << k.name;
        EXPECT_EQ(ia2, ia) << k.name;
        EXPECT_EQ(ib2, ib) << k.name;
    }
}

// ------------------------------------------------ segment spines

TEST(SegmentSpine, IndexMathTilesTheIndexSpace)
{
    struct Shape {
        std::uint32_t first, chunk;
    };
    for (const Shape sh : {Shape{5, 16}, Shape{4, 13}, Shape{4, 12},
                           Shape{12, 18}, Shape{13, 13}}) {
        const std::uint64_t end = (std::uint64_t{1} << sh.chunk) * 3;
        std::vector<std::vector<std::uint32_t>> storage;
        SegmentSpine<std::uint32_t> spine;
        spine.init(sh.first, sh.chunk, end);
        spine.cover(end - 1, [&](std::uint32_t seg, std::uint64_t n) {
            EXPECT_EQ(seg, storage.size());
            storage.emplace_back(n);
            return storage.back().data();
        });
        // Segments tile [0, end) in order: each begins where the last
        // ended, the ramp doubles, and past it every chunk is 2^C.
        std::uint64_t begin = 0;
        for (std::uint32_t seg = 0; seg < spine.segments(); ++seg) {
            ASSERT_EQ(spine.segmentBegin(seg), begin)
                << sh.first << "/" << sh.chunk << " seg " << seg;
            const std::uint64_t len = spine.segmentLength(seg);
            EXPECT_EQ(len, storage[seg].size());
            if (begin >= (std::uint64_t{1} << sh.chunk)) {
                EXPECT_EQ(len, std::uint64_t{1} << sh.chunk);
            }
            begin += len;
        }
        EXPECT_EQ(begin, end);
        EXPECT_EQ(spine.segmentBegin(spine.segmentOf(
                      std::uint64_t{1} << sh.chunk)),
                  std::uint64_t{1} << sh.chunk);
        // Every index resolves to its own cell.
        for (std::uint64_t i = 0; i < end; ++i)
            spine[i] = static_cast<std::uint32_t>(i);
        for (std::uint64_t i = 0; i < end; ++i) {
            const std::uint32_t seg = spine.segmentOf(i);
            ASSERT_EQ(storage[seg][i - spine.segmentBegin(seg)], i)
                << sh.first << "/" << sh.chunk << " i=" << i;
        }
    }
}

/** Offsets 2^k - 1, 2^k and 2^k + 1 below @p n: every ramp segment
 * boundary of every column, and the first fixed-size chunks. */
std::vector<std::uint32_t>
boundaryOffsets(std::uint32_t n)
{
    std::vector<std::uint32_t> offs = {0};
    for (std::uint32_t k = 1; (1u << k) + 1 < n; ++k) {
        for (std::uint32_t o : {(1u << k) - 1, 1u << k, (1u << k) + 1})
            offs.push_back(o);
    }
    return offs;
}

TEST(StoreBackend, SegmentBoundariesRoundTripOnEveryKind)
{
    // One shard gets past the first fixed-size chunk of every
    // segmented column: depth and compact offsets (2^16 entries),
    // full blocks (2^12..2^13 states) and compact byte blocks
    // (2^18 bytes).  Levels are sealed at every power of two, so on
    // the mmap kinds ramp blocks are dropped one by one and must be
    // recovered for the reads below.
    const std::uint32_t n = (1u << 16) + 1000;
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        std::uint32_t next_seal = 64;
        for (std::uint32_t i = 0; i < n; ++i) {
            auto [id, fresh] = store.insert(
                probeState(static_cast<int>(i)),
                shardZeroHash(static_cast<int>(i)),
                i == 0 ? StateStore::kNoParent : i - 1,
                static_cast<std::uint16_t>(i), i);
            ASSERT_TRUE(fresh) << k.name << " i=" << i;
            ASSERT_EQ(id, i) << k.name; // shard 0: id == offset
            if (i + 1 == next_seal) {
                store.sealLevel();
                next_seal *= 2;
            }
        }
        const bool readable = store.statesAlwaysReadable();
        for (const std::uint32_t off : boundaryOffsets(n)) {
            if (readable || store.stateRetained(off)) {
                SystemState decoded;
                store.stateInto(off, decoded);
                EXPECT_TRUE(decoded == probeState(static_cast<int>(off)))
                    << k.name << " off=" << off;
            }
            EXPECT_EQ(store.parentAt(off),
                      off == 0 ? StateStore::kNoParent : off - 1)
                << k.name << " off=" << off;
            EXPECT_EQ(store.ruleAt(off), static_cast<std::uint16_t>(off))
                << k.name << " off=" << off;
            EXPECT_EQ(store.depthAt(off), off)
                << k.name << " off=" << off;
            // Dedup across the boundary, sealed blocks included.
            auto [id, fresh] = store.insert(
                probeState(static_cast<int>(off)),
                shardZeroHash(static_cast<int>(off)),
                StateStore::kNoParent, 0, n);
            EXPECT_FALSE(fresh) << k.name << " off=" << off;
            EXPECT_EQ(id, off) << k.name;
        }
        EXPECT_TRUE(store.stateRetained(n - 1)) << k.name;
        EXPECT_EQ(store.size(), n) << k.name;
        EXPECT_EQ(store.maxDepthQuiescent(), n - 1) << k.name;
    }
}

TEST(StoreBackend, DepthCellsReadableWhileAnotherThreadAppends)
{
    // The work-stealing explorer reads depth labels lock-free while
    // peers insert.  Readers chase the writer across every depth
    // segment boundary, the first fixed-size chunk included (TSan
    // runs this suite).
    const std::uint32_t n = (1u << 16) + 512;
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        std::atomic<std::uint32_t> published{0};
        std::atomic<bool> mismatch{false};
        auto reader = [&] {
            std::uint32_t seen = 0;
            while (seen < n) {
                seen = published.load(std::memory_order_acquire);
                if (seen == 0)
                    continue;
                for (std::uint32_t off : {seen - 1, seen / 2, seen / 3}) {
                    if (store.depthAt(off) != off)
                        mismatch.store(true);
                }
            }
        };
        std::thread r1(reader), r2(reader);
        for (std::uint32_t i = 0; i < n; ++i) {
            store.insert(probeState(static_cast<int>(i)),
                         shardZeroHash(static_cast<int>(i)),
                         StateStore::kNoParent, 0, i);
            published.store(i + 1, std::memory_order_release);
        }
        r1.join();
        r2.join();
        EXPECT_FALSE(mismatch.load()) << k.name;
    }
}

TEST(StoreBackend, FootprintTracksTheStatesHeld)
{
    for (const Kind &k : kKinds) {
        const bool mmap = k.backend == StoreBackend::Mmap;
        // A tiny check's store: 30 states spread over the shards.
        {
            StateStore store(configOf(k));
            for (int i = 0; i < 30; ++i)
                store.insert(probeState(i), StateStore::kNoParent, 0, 0);
            const StateStore::Footprint fp = store.allocatedBytes();
            EXPECT_GT(fp.columns, 0u) << k.name;
            EXPECT_GT(fp.arena, 0u) << k.name;
            EXPECT_LE(fp.total(), mmap ? 1024u * 1024 : 256u * 1024)
                << k.name;
            if (mmap) { // every byte an mmap store holds is mapped
                EXPECT_EQ(fp.total(), store.mappedBytes()) << k.name;
            }
        }
        // One shard filling up to the end of the smallest ramp (full
        // blocks under mmap: 2^12 states): allocation stays within a
        // constant factor of the bytes the states need.
        StateStore store(configOf(k));
        const std::uint64_t empty = store.allocatedBytes().total();
        const std::uint64_t per_state = sizeof(SystemState) + 64;
        int i = 0;
        for (std::uint32_t held = 32; held <= (1u << 12); held *= 2) {
            for (; i < static_cast<int>(held); ++i) {
                store.insert(probeState(i), shardZeroHash(i),
                             StateStore::kNoParent, 0, 0);
            }
            EXPECT_LE(store.allocatedBytes().total(),
                      empty + 64 * 1024 + 3 * held * per_state)
                << k.name << " holding " << held;
        }
    }
}

// ------------------------------------------- engine-level agreement

ExploreResult
runKind(const RuleSet &rules, const Scenario &sc,
        const InvariantSet &inv, ExploreOptions opt, const Kind &k,
        std::size_t threads)
{
    opt.compaction = k.mode == StoreMode::Compact;
    opt.storeBackend = k.backend;
    opt.numThreads = threads;
    Explorer ex(rules, sc, inv);
    return ex.run(opt);
}

void
expectAgreement(const ExploreResult &base, const ExploreResult &run,
                const std::string &what)
{
    EXPECT_EQ(base.numStates, run.numStates) << what;
    EXPECT_EQ(base.numTransitions, run.numTransitions) << what;
    EXPECT_EQ(base.maxDepth, run.maxDepth) << what;
    EXPECT_EQ(base.completed, run.completed) << what;
    EXPECT_EQ(base.ruleFireCounts, run.ruleFireCounts) << what;
    EXPECT_EQ(run.probeCollisions, 0u) << what;
}

TEST(StoreBackend, TwoDeviceCountsBitIdenticalAcrossKinds)
{
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config);
    Scenario sc = Scenario::freeRunScenario();
    InvariantSet inv = InvariantSet::full(config);

    ExploreResult base =
        runKind(rules, sc, inv, {}, kKinds[0], 1);
    ASSERT_TRUE(base.completed);
    ASSERT_FALSE(base.violation.has_value());
    for (const Kind &k : kKinds) {
        for (std::size_t threads : {1u, 4u}) {
            expectAgreement(base,
                            runKind(rules, sc, inv, {}, k, threads),
                            std::string("2dev ") + k.name + " @" +
                                std::to_string(threads));
        }
    }
}

TEST(StoreBackend, ThreeDeviceSymCountsBitIdenticalAcrossKinds)
{
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config, 3);
    Scenario sc = Scenario::freeRunScenario(3);
    InvariantSet inv = InvariantSet::full(config, 3);
    ExploreOptions opt;
    opt.symmetryReduction = true;

    ExploreResult base = runKind(rules, sc, inv, opt, kKinds[0], 1);
    ASSERT_TRUE(base.completed);
    EXPECT_GT(base.numStates, 100000u); // the 144,294-orbit space
    for (const Kind &k : kKinds) {
        ExploreResult run = runKind(rules, sc, inv, opt, k, 4);
        expectAgreement(base, run,
                        std::string("3dev sym ") + k.name);
#if defined(__linux__)
        if (k.backend == StoreBackend::Mmap) {
            EXPECT_GT(run.storeFileBytes, 0u) << k.name;
            EXPECT_GT(run.storeMappedBytes, 0u) << k.name;
        }
#endif
    }
}

TEST(StoreBackend, ShardFullStopsBothEnginesOnEveryKind)
{
    // A 64-entry store cannot hold the 2-device free-run space; the
    // StoreFullError must become a graceful governed stop on every
    // kind under both schedules, never an escaping exception.
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config);
    Scenario sc = Scenario::freeRunScenario();
    InvariantSet inv = InvariantSet::full(config);

    for (const Kind &k : kKinds) {
        for (Schedule sched :
             {Schedule::Bfs, Schedule::WorkSteal}) {
            ExploreOptions opt;
            opt.storeCapacity = 64;
            opt.schedule = sched;
            ExploreResult res;
            ASSERT_NO_THROW(
                res = runKind(rules, sc, inv, opt, k, 4))
                << k.name;
            EXPECT_EQ(res.stopReason, StopReason::ShardFull)
                << k.name << " sched "
                << static_cast<int>(sched);
            EXPECT_FALSE(res.completed) << k.name;
            EXPECT_FALSE(res.violation.has_value()) << k.name;
        }
    }
}

} // namespace
} // namespace cxl
