/**
 * @file
 * State-arena layer of the visited-state store.
 *
 * One StateArena holds a shard's state bytes in index-addressed
 * blocks allocated from the shard's ShardMem backend (store_mem.hh),
 * laid out on a SegmentSpine (store_segments.hh): a doubling ramp of
 * small blocks, then fixed-size blocks, so a shard holding a handful
 * of states allocates a few KiB while a large run gets today's
 * block size from the end of the first block's worth on:
 *
 *  - Full mode: verbatim SystemState slots, a ramp from
 *    2^kFullFirstBits states up to kFullBlockBitsRam (heap) or
 *    kFullBlockBitsMmap (mmap) states per block.
 *  - Compact mode: zero-RLE cells in byte blocks (a ramp from
 *    2^kByteFirstBits bytes up to 2^kByteBlockBits), located by a
 *    segmented per-entry offset column (segments never move, so
 *    workers may read frontier offsets while peers append).
 *
 * The spines never reallocate — the ramp's block pointers sit in a
 * fixed array and the table for the fixed-size blocks is allocated
 * once, at full size, when a run first grows past the ramp — so
 * readers index them lock-free for entries published before their
 * expansion phase began, the same contract the monolithic store had.
 *
 * seal(): at a BFS level barrier the façade passes the current entry
 * count and the arena drops every whole block that belongs to levels
 * finished expanding.  On an unrecoverable backend (InRam) this is
 * the classic compact-mode release — full mode never drops, and
 * dropped cells are gone (cellRetained() goes false).  On a
 * recoverable backend (Mmap) *both* modes drop: the mapped window
 * shrinks to roughly the frontier and its successors while the
 * backing file keeps every byte, and a dropped block can be remapped
 * on demand (fullAtCold()/cellInto()) — which is also why
 * counterexample traces stay reconstructible under mmap even in
 * compact mode.  Recovered blocks are re-dropped at the next seal
 * (the drop loop rescans from block zero).  Ramp blocks are dropped
 * the same way, one at a time; past the ramp the drop granularity is
 * the fixed block size.
 *
 * Full-mode dedup against a sealed (dropped) block would fault pages
 * back per duplicate and re-grow the mapped window; the façade
 * instead keeps a verification fingerprint per entry on recoverable
 * full-mode backends and compares *that* when fullIfMapped() returns
 * null — identical detected-collision semantics to compact mode for
 * cold entries, exact byte comparison for the mapped window.
 *
 * Thread-safety: placeFull/appendCell/seal and the cold (recovering)
 * readers run under the shard lock or quiescent; fullAt/cellInto on
 * retained frontier entries follow the façade's lock-free reader
 * contract.
 */

#ifndef CXL_CHECKER_STORE_ARENA_HH
#define CXL_CHECKER_STORE_ARENA_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>

#include "checker/store_mem.hh"
#include "checker/store_segments.hh"
#include "protocol/state.hh"

namespace cxl
{

/** Storage policy of a StateStore (façade-level; see state_store.hh). */
enum class StoreMode : std::uint8_t {
    Full,    ///< keep every state; exact dedup; traces reconstructible
    Compact, ///< hash compaction: 64-bit fingerprints instead of states
};

/** One shard's state-byte arena (see the file comment). */
class StateArena
{
  public:
    /** log2 of states in the first full-mode block (~4 KiB). */
    static constexpr std::uint32_t kFullFirstBits = 4;
    /** log2 of states per full-mode block past the ramp: ~2 MB heap
     * blocks in RAM; smaller (~1 MB) blocks under mmap so the
     * partial-block slack at the mapped window's edges stays small. */
    static constexpr std::uint32_t kFullBlockBitsRam = 13;
    static constexpr std::uint32_t kFullBlockBitsMmap = 12;
    /** log2 of the first compact-mode byte block (4 KiB) and of the
     * byte-block size past the ramp (256 KiB). */
    static constexpr std::uint32_t kByteFirstBits = 12;
    static constexpr std::uint32_t kByteBlockBits = 18;

    /** log2 of the first segment and of the chunks of the compact
     * offset column. */
    static constexpr std::uint32_t kOffFirstBits = 5;
    static constexpr std::uint32_t kOffChunkBits = 16;

    /**
     * Upper bound on one zero-RLE-encoded state cell: 2-byte payload
     * length plus, in the worst (incompressible) case, the literal
     * bytes emitted in <=255-byte chunks with 2 bytes of pair
     * overhead each.
     */
    static constexpr std::size_t kMaxEncodedState =
        2 + sizeof(SystemState) + 2 * (sizeof(SystemState) / 255 + 1);
    static_assert((std::size_t{1} << kByteFirstBits) >= kMaxEncodedState,
                  "a cell must fit the first byte block");

    /** Bind to a backend; @p max_entries bounds the spines' block
     * tables (full mode and the compact offset column; compact byte
     * blocks cover their 4 GiB offset space). */
    void init(ShardMem *mem, StoreMode mode, std::uint32_t max_entries);

    /** Size the first full-mode block and offset segment to hold
     * @p entries (no ramp when they fill a block).  Only before the
     * first append. */
    void reserveEntries(std::size_t entries);

    /** True when dropped blocks can be remapped from the backing
     * file. */
    bool recoverable() const { return mem_->recoverable(); }

    /** Bytes held by this layer: blocks, offset segments and the
     * spines' block tables.  Quiescent use only. */
    std::uint64_t allocatedBytes() const;

    // --- Full mode ---------------------------------------------------

    /** State slot for a retained (mapped) entry; lock-free-safe for
     * published entries of the mapped window. */
    const SystemState *
    fullAt(std::uint32_t off) const
    {
        std::uint64_t at;
        const StateSlot *base = states_.locate(off, at);
        assert(base && "state block sealed; use fullAtCold");
        return slotState(base + at);
    }

    /** Like fullAt but null when the enclosing block was dropped —
     * the façade's cue to fall back to fingerprint identity. */
    const SystemState *
    fullIfMapped(std::uint32_t off) const
    {
        std::uint64_t at;
        const StateSlot *base = states_.locate(off, at);
        return base ? slotState(base + at) : nullptr;
    }

    /** fullAt that remaps a dropped block first (shard lock held or
     * quiescent; recoverable backends only once anything sealed). */
    const SystemState *fullAtCold(std::uint32_t off) const;

    /** Copy-construct entry @p off's state slot (shard lock held). */
    void placeFull(std::uint32_t off, const SystemState &state);

    // --- Compact mode ------------------------------------------------

    /**
     * Encode and append one state cell for entry @p off (shard lock
     * held).  @throws StoreFullError (shard @p shard_idx) when the
     * shard's 32-bit arena offset space is exhausted.
     */
    void appendCell(std::uint32_t shard_idx, std::uint32_t off,
                    const SystemState &state);

    /** Decode entry @p off's cell (recovering its block if sealed —
     * then shard lock held or quiescent). */
    void cellInto(std::uint32_t off, SystemState &out) const;

    /** True while entry @p off's cell is still decodable: always on a
     * recoverable backend; until seal() releases the enclosing block
     * otherwise. */
    bool
    cellRetained(std::uint32_t off) const
    {
        return byteFloor_ == 0 || stateOffs_[off] >= byteFloor_;
    }

    // --- Level barrier -----------------------------------------------

    /**
     * BFS level barrier (quiescent): drop every whole block of levels
     * finished expanding.  @p entry_count is the shard's current
     * entry count (full-mode level boundary; compact mode uses its
     * byte cursor).  No-op for full mode on unrecoverable backends.
     */
    void seal(std::uint32_t entry_count);

  private:
    /** Raw storage of one full-mode state. */
    struct StateSlot {
        alignas(SystemState) std::byte bytes[sizeof(SystemState)];
    };

    static const SystemState *
    slotState(const StateSlot *slot)
    {
        return std::launder(
            reinterpret_cast<const SystemState *>(slot->bytes));
    }

    /** Remap dropped block @p seg of the mode's spine. */
    void recoverBlock(std::uint32_t seg) const;

    ShardMem *mem_ = nullptr;
    StoreMode mode_ = StoreMode::Full;
    /**
     * Block spines (never reallocate; see the file comment): full
     * mode's state slots, compact mode's cell bytes.  Null means
     * dropped; mutable because cold reads remap on demand without
     * changing observable state.
     */
    mutable SegmentSpine<StateSlot> states_;
    mutable SegmentSpine<std::byte> bytes_;
    /** Compact offset column (segments never move). */
    SegmentSpine<std::uint32_t> stateOffs_;
    std::uint64_t byteCursor_ = 0; ///< compact: next free arena byte
    std::uint64_t byteFloor_ = 0;  ///< compact: lost below this (InRam)
    /** Level boundary at the previous seal: entry count (full) or
     * byte cursor (compact). */
    std::uint64_t levelBoundary_ = 0;
};

} // namespace cxl

#endif // CXL_CHECKER_STORE_ARENA_HH
