/**
 * @file
 * Backend memory layer of the visited-state store.
 *
 * StateStore's shard columns and state arenas (store_columns.hh,
 * store_arena.hh) never allocate directly: each shard owns one
 * ShardMem that hands out the three allocation shapes the store
 * needs, and the backend choice — plain heap or per-shard
 * file-backed mappings — is made once here, invisibly to the layers
 * above:
 *
 *  - flats: amortised-growable arrays (the SoA entry columns and the
 *    probe bucket array).  Growing may move the base, so callers
 *    re-read the returned pointer; flats are only touched under the
 *    shard lock (or quiescent), matching that contract.
 *  - chunks: allocations whose address never moves (the segments of
 *    the atomic depth column and of the compact-mode state-offset
 *    column), so lock-free readers can walk them while peers insert.
 *  - blocks: index-addressed arena blocks (the arena's segments, of
 *    any size) that can be dropped (sealLevel) and — on backends
 *    with a backing file — recovered later, because the bytes
 *    persist in the file.
 *
 * Every shape is accounted to the store layer it serves (StoreLayer:
 * flats are columns, blocks are arena, chunks name theirs), which is
 * what StateStore::allocatedBytes() reports.
 *
 * The Mmap backend gives every shard its own anonymous backing files
 * (memfd, or O_TMPFILE/unlinked files under an explicit directory for
 * true spill-to-disk), grown with ftruncate and remapped with
 * mremap.  Dropping a sealed block munmaps it — address space and
 * residency shrink, the file keeps the bytes — after advising the
 * kernel the pages have gone cold, so a bounded mapped window walks
 * the (unbounded) file as BFS levels seal.  That is what lets a
 * space whose full-mode arena exceeds an address-space budget
 * (`ulimit -v`) complete out of core.
 *
 * Thread-safety: all allocation calls are made under the owning
 * shard's lock (or while quiescent).  The byte counters are atomics
 * readable from any thread (bench/progress sampling).
 */

#ifndef CXL_CHECKER_STORE_MEM_HH
#define CXL_CHECKER_STORE_MEM_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace cxl
{

/** Which memory backend a StateStore's shards allocate from. */
enum class StoreBackend : std::uint8_t {
    InRam, ///< heap allocations; dropped blocks are freed for good
    Mmap,  ///< per-shard file-backed mappings; dropped blocks persist
};

/** The store layer an allocation serves (per-layer accounting). */
enum class StoreLayer : unsigned {
    Columns, ///< ShardColumns: flats, buckets, depth segments
    Arena,   ///< StateArena: state blocks, compact offset segments
};

/** One shard's allocator (see the file comment for the shapes). */
class ShardMem
{
  public:
    /** Flat-region slots a shard uses (one growable array each). */
    enum FlatId : unsigned {
        kFlatHashes = 0,
        kFlatVerifies,
        kFlatParents,
        kFlatRules,
        kFlatBuckets,
        kFlatCount,
    };

    virtual ~ShardMem() = default;

    /**
     * Grow flat region @p id to at least @p bytes (first call
     * creates it).  Contents are preserved; the base may move —
     * callers re-read the return value.  Never shrinks.
     */
    virtual void *flatGrow(unsigned id, std::size_t bytes) = 0;

    /** Allocate @p bytes for @p layer at an address that never
     * moves. */
    virtual void *chunkAlloc(std::size_t bytes, StoreLayer layer) = 0;

    /**
     * Allocate arena block @p index of @p bytes; blocks are created in
     * index order, each at a stable address, and may differ in size.
     */
    virtual void *blockAlloc(std::uint32_t index,
                             std::size_t bytes) = 0;

    /** Release block @p index's memory.  InRam frees it for good;
     * Mmap unmaps the window (the backing file keeps the bytes). */
    virtual void blockDrop(std::uint32_t index) = 0;

    /** Re-map a dropped block; nullptr when the backend cannot
     * (InRam).  Callers hold the shard lock or are quiescent. */
    virtual void *blockRecover(std::uint32_t index) = 0;

    /** True when dropped blocks can be recovered (a backing file
     * holds their bytes). */
    virtual bool recoverable() const = 0;

    /** Bytes currently mapped/allocated by this shard's file-backed
     * regions (0 for InRam: nothing is file-backed). */
    virtual std::uint64_t mappedBytes() const { return 0; }

    /** Total size of this shard's backing files (0 for InRam). */
    virtual std::uint64_t backingFileBytes() const { return 0; }

    /**
     * Bytes currently held for @p layer: heap bytes requested (InRam)
     * or page-rounded bytes mapped (Mmap); dropped blocks no longer
     * count.  Readable from any thread (relaxed counter).
     */
    std::uint64_t
    allocatedBytes(StoreLayer layer) const
    {
        return held_[static_cast<unsigned>(layer)].load(
            std::memory_order_relaxed);
    }

  protected:
    void
    account(StoreLayer layer, std::int64_t delta)
    {
        held_[static_cast<unsigned>(layer)].fetch_add(
            static_cast<std::uint64_t>(delta),
            std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> held_[2] = {};
};

/**
 * Build one shard's allocator.  @p dir names the backing directory
 * for StoreBackend::Mmap ("" = anonymous in-memory files); ignored
 * for InRam.  On platforms without the required mmap surface the
 * Mmap backend degrades to InRam (dropped blocks unrecoverable).
 *
 * @throws std::runtime_error when a backing file cannot be created.
 */
std::unique_ptr<ShardMem> makeShardMem(StoreBackend backend,
                                       const std::string &dir);

} // namespace cxl

#endif // CXL_CHECKER_STORE_MEM_HH
