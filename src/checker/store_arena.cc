#include "checker/store_arena.hh"

#include <algorithm>
#include <cstring>
#include <string>

#include "checker/state_store.hh"

namespace cxl
{
namespace
{

/**
 * Zero-RLE codec for compact-mode state cells.  Reachable states are
 * sparse — most channel slots are empty and InlineVec zeroes its
 * tail — so run-length-eliding the zero bytes shrinks a ~240-byte
 * record to a few tens of bytes.  Cell layout:
 *
 *   [payload_len:u16] ([zero_run:u8][lit_len:u8][lit bytes...])*
 *
 * Decoding starts from an all-zero record, so a cell reproduces the
 * active prefix bit-exactly.  If the greedy pair encoding would ever
 * exceed the all-literal fallback (pathologically alternating bytes),
 * the cell is emitted as plain <=255-byte literal chunks instead,
 * which is what bounds StateArena::kMaxEncodedState.
 */
std::uint16_t
encodeCell(const SystemState &state, std::byte *dst)
{
    const auto *src = reinterpret_cast<const unsigned char *>(&state);
    const std::size_t len = state.activeBytes();

    // Worst-case greedy output: 2 bytes of pair overhead per literal
    // island; islands are at least 1 byte, so 3x the input bounds it.
    unsigned char tmp[2 + 3 * sizeof(SystemState) + 8];
    std::size_t pos = 0;
    std::size_t i = 0;
    while (i < len) {
        std::size_t zeros = 0;
        while (i + zeros < len && src[i + zeros] == 0)
            ++zeros;
        if (i + zeros == len)
            break; // trailing zeros are implicit
        std::size_t lit = 0;
        while (i + zeros + lit < len && src[i + zeros + lit] != 0)
            ++lit;
        std::size_t z = zeros, l = lit, at = i + zeros;
        while (z > 255) {
            tmp[pos++] = 255;
            tmp[pos++] = 0;
            z -= 255;
        }
        while (l > 255) {
            tmp[pos++] = static_cast<unsigned char>(z);
            tmp[pos++] = 255;
            std::memcpy(tmp + pos, src + at, 255);
            pos += 255;
            at += 255;
            l -= 255;
            z = 0;
        }
        tmp[pos++] = static_cast<unsigned char>(z);
        tmp[pos++] = static_cast<unsigned char>(l);
        std::memcpy(tmp + pos, src + at, l);
        pos += l;
        i += zeros + lit;
    }

    // All-literal fallback size (the kMaxEncodedState bound).
    const std::size_t fallback = len + 2 * (len / 255 + 1);
    if (pos > fallback) {
        pos = 0;
        std::size_t at = 0, rest = len;
        while (rest > 0) {
            const std::size_t l = std::min<std::size_t>(rest, 255);
            tmp[pos++] = 0;
            tmp[pos++] = static_cast<unsigned char>(l);
            std::memcpy(tmp + pos, src + at, l);
            pos += l;
            at += l;
            rest -= l;
        }
    }

    const auto payload = static_cast<std::uint16_t>(pos);
    std::memcpy(dst, &payload, 2);
    std::memcpy(dst + 2, tmp, pos);
    return static_cast<std::uint16_t>(2 + pos);
}

/** Inverse of encodeCell; @p out is fully overwritten. */
void
decodeCell(const std::byte *cell, SystemState &out)
{
    std::memset(static_cast<void *>(&out), 0, sizeof(SystemState));
    auto *dst = reinterpret_cast<unsigned char *>(&out);
    std::uint16_t payload = 0;
    std::memcpy(&payload, cell, 2);
    const auto *src = reinterpret_cast<const unsigned char *>(cell) + 2;
    std::size_t pos = 0, at = 0;
    while (pos < payload) {
        at += src[pos];
        const std::size_t lit = src[pos + 1];
        std::memcpy(dst + at, src + pos + 2, lit);
        at += lit;
        pos += 2 + lit;
    }
}

} // namespace

void
StateArena::init(ShardMem *mem, StoreMode mode,
                 std::uint32_t max_entries)
{
    mem_ = mem;
    mode_ = mode;
    if (mode_ == StoreMode::Full) {
        states_.init(kFullFirstBits,
                     mem_->recoverable() ? kFullBlockBitsMmap
                                         : kFullBlockBitsRam,
                     max_entries);
    } else {
        // Compact cells are offset-addressed with 32 bits per shard:
        // up to 4 GiB of compressed frontier per shard, far beyond
        // the retained working set of any feasible run.
        bytes_.init(kByteFirstBits, kByteBlockBits,
                    std::uint64_t{1} << 32);
        stateOffs_.init(kOffFirstBits, kOffChunkBits, max_entries);
    }
}

void
StateArena::reserveEntries(std::size_t entries)
{
    if (mode_ == StoreMode::Full)
        states_.presize(entries, kFullFirstBits);
    else
        stateOffs_.presize(entries, kOffFirstBits);
}

std::uint64_t
StateArena::allocatedBytes() const
{
    return mem_->allocatedBytes(StoreLayer::Arena) +
           states_.tableBytes() + bytes_.tableBytes() +
           stateOffs_.tableBytes();
}

void
StateArena::recoverBlock(std::uint32_t seg) const
{
    void *p = mem_->blockRecover(seg);
    assert(p && "sealed state block unrecoverable on this backend");
    if (mode_ == StoreMode::Full)
        states_.setSegment(seg, static_cast<StateSlot *>(p));
    else
        bytes_.setSegment(seg, static_cast<std::byte *>(p));
}

const SystemState *
StateArena::fullAtCold(std::uint32_t off) const
{
    const std::uint32_t seg = states_.segmentOf(off);
    if (!states_.segment(seg))
        recoverBlock(seg);
    return fullAt(off);
}

void
StateArena::placeFull(std::uint32_t off, const SystemState &state)
{
    states_.cover(off, [this](std::uint32_t seg, std::uint64_t slots) {
        return static_cast<StateSlot *>(
            mem_->blockAlloc(seg, slots * sizeof(StateSlot)));
    });
    new (states_[off].bytes) SystemState(state);
}

void
StateArena::appendCell(std::uint32_t shard_idx, std::uint32_t off,
                       const SystemState &state)
{
    std::byte enc[kMaxEncodedState];
    const std::uint16_t enc_len = encodeCell(state, enc);
    // A cell never straddles byte blocks; skip a too-small tail.
    std::uint64_t at = byteCursor_;
    const std::uint32_t seg = bytes_.segmentOf(at);
    const std::uint64_t seg_end =
        bytes_.segmentBegin(seg) + bytes_.segmentLength(seg);
    if (at + enc_len > seg_end)
        at = seg_end;
    if (at + enc_len > (std::uint64_t{1} << 32)) {
        throw StoreFullError(
            shard_idx,
            "StateStore shard " + std::to_string(shard_idx) +
                " compact arena offset space exhausted (4 GiB of "
                "encoded frontier); pre-size with --expect-states so "
                "sealing keeps up, or lower the run's budgets");
    }
    bytes_.cover(at, [this](std::uint32_t block, std::uint64_t bytes) {
        return static_cast<std::byte *>(mem_->blockAlloc(block, bytes));
    });
    std::memcpy(&bytes_[at], enc, enc_len);
    stateOffs_.cover(off, [this](std::uint32_t, std::uint64_t entries) {
        return static_cast<std::uint32_t *>(mem_->chunkAlloc(
            entries * sizeof(std::uint32_t), StoreLayer::Arena));
    });
    stateOffs_[off] = static_cast<std::uint32_t>(at);
    byteCursor_ = at + enc_len;
}

void
StateArena::cellInto(std::uint32_t off, SystemState &out) const
{
    const std::uint32_t byte_off = stateOffs_[off];
    assert(cellRetained(off) && "state released by sealLevel");
    const std::uint32_t seg = bytes_.segmentOf(byte_off);
    if (!bytes_.segment(seg))
        recoverBlock(seg);
    decodeCell(&bytes_[byte_off], out);
}

void
StateArena::seal(std::uint32_t entry_count)
{
    if (mode_ == StoreMode::Full && !mem_->recoverable())
        return; // classic full store: nothing is ever released
    // Blocks wholly below the previous level boundary belong to
    // levels whose expansion has finished; the frontier no longer
    // reads them.  Release whole blocks only — a partial tail block
    // is shared with the still-needed frontier.  The loop rescans
    // from zero so blocks recovered since the last seal go cold
    // again.
    auto drop_below = [this](auto &spine) {
        const std::uint32_t floor = std::min(
            spine.segmentOf(levelBoundary_), spine.segments());
        for (std::uint32_t b = 0; b < floor; ++b) {
            if (spine.segment(b)) {
                mem_->blockDrop(b);
                spine.setSegment(b, nullptr);
            }
        }
        return floor;
    };
    if (mode_ == StoreMode::Compact) {
        const std::uint32_t floor = drop_below(bytes_);
        if (!mem_->recoverable()) {
            byteFloor_ =
                std::max(byteFloor_, bytes_.segmentBegin(floor));
        }
        levelBoundary_ = byteCursor_;
    } else {
        drop_below(states_);
        levelBoundary_ = entry_count;
    }
}

} // namespace cxl
