/**
 * @file
 * Segment spine shared by the visited-state store's chunked columns.
 *
 * A SegmentSpine maps a dense index space onto segments whose
 * addresses never move, in the manner of TBB concurrent_vector's
 * segment table: a short geometric ramp, then fixed-size chunks.
 * With F = firstBits and C = chunkBits (F <= C):
 *
 *   segment 0             [0, 2^F)                 2^F entries
 *   segment k, 1..C-F     [2^(F+k-1), 2^(F+k))     doubling ramp
 *   segment C-F+j, j>=1   [j*2^C, (j+1)*2^C)       2^C entries each
 *
 * The ramp's segments add up to exactly one chunk, so past index 2^C
 * the layout is the plain fixed-chunk layout: a column that grows
 * large pays nothing for the ramp, while a column holding a handful
 * of entries allocates tens of entries instead of a whole chunk.
 * F == C is the no-ramp layout (StateStore::reserveStates selects it
 * for runs expected to fill a chunk).
 *
 * Index -> (segment, offset) is O(1): a shift past the ramp, one
 * bit_width inside it.  The spine only keeps pointers; each column
 * allocates its segments from its ShardMem backend (cover()) and may
 * replace a pointer later (arena blocks are dropped and recovered).
 *
 * Lock-free readers: the ramp's pointers live in a fixed array
 * inside the spine, and the pointer table for the fixed-size chunks
 * is allocated once, fully sized for the spine's capacity, when the
 * first chunk past the ramp is appended — before any index in that
 * chunk can have been published.  Neither ever moves, so a reader may
 * index any entry published to it while the owner appends more.
 */

#ifndef CXL_CHECKER_STORE_SEGMENTS_HH
#define CXL_CHECKER_STORE_SEGMENTS_HH

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace cxl
{

/** Pointer spine of one segmented column (see the file comment). */
template <typename T>
class SegmentSpine
{
  public:
    /** Most ramp segments a spine can have (C - F + 1). */
    static constexpr std::uint32_t kMaxRamp = 16;

    /**
     * Set the geometry for indices in [0, @p capacity).  Only while
     * no segment is allocated (the layout decides every index's
     * address).
     */
    void
    init(std::uint32_t first_bits, std::uint32_t chunk_bits,
         std::uint64_t capacity)
    {
        assert(count_ == 0 && "reshaping a spine that holds segments");
        assert(first_bits >= 1 && first_bits <= chunk_bits &&
               chunk_bits - first_bits < kMaxRamp);
        firstBits_ = first_bits;
        chunkBits_ = chunk_bits;
        firstMask_ = (std::uint64_t{1} << first_bits) - 1;
        chunkMask_ = (std::uint64_t{1} << chunk_bits) - 1;
        rampSegs_ = chunk_bits - first_bits + 1;
        capacity_ = capacity;
    }

    /**
     * Re-init, while no segment is allocated, with a first segment
     * that holds @p entries (at least 2^@p min_bits; no ramp once
     * @p entries fills a chunk).  No-op once segments exist.
     */
    void
    presize(std::uint64_t entries, std::uint32_t min_bits)
    {
        if (count_ != 0)
            return;
        const auto bits = static_cast<std::uint32_t>(
            std::bit_width(std::max<std::uint64_t>(entries, 1) - 1));
        init(std::clamp(bits, min_bits, chunkBits_), chunkBits_,
             capacity_);
    }

    /** Segments allocated so far. */
    std::uint32_t segments() const { return count_; }

    /** Segment holding index @p i. */
    std::uint32_t
    segmentOf(std::uint64_t i) const
    {
        if (i >> chunkBits_) {
            return rampSegs_ - 1 +
                   static_cast<std::uint32_t>(i >> chunkBits_);
        }
        return static_cast<std::uint32_t>(std::bit_width(i | firstMask_)) -
               firstBits_;
    }

    /** First index of segment @p seg. */
    std::uint64_t
    segmentBegin(std::uint32_t seg) const
    {
        if (seg >= rampSegs_)
            return std::uint64_t{seg - rampSegs_ + 1} << chunkBits_;
        // Segment 0 starts at 0: 2^(F-1) has no bit above the mask.
        return (std::uint64_t{1} << (firstBits_ + seg - 1)) &
               ~firstMask_;
    }

    /** Entries in segment @p seg. */
    std::uint64_t
    segmentLength(std::uint32_t seg) const
    {
        if (seg == 0)
            return firstMask_ + 1;
        if (seg >= rampSegs_)
            return chunkMask_ + 1;
        return std::uint64_t{1} << (firstBits_ + seg - 1);
    }

    /** Base of segment @p seg (null while dropped). */
    T *
    segment(std::uint32_t seg) const
    {
        return seg < rampSegs_ ? ramp_[seg]
                               : fixed_[seg - rampSegs_ + 1];
    }

    /** Replace segment @p seg's base (drop / recover). */
    void
    setSegment(std::uint32_t seg, T *base)
    {
        assert(seg < count_);
        if (seg < rampSegs_)
            ramp_[seg] = base;
        else
            fixed_[seg - rampSegs_ + 1] = base;
    }

    /**
     * Base of the segment holding @p i and @p i's offset in it.
     * Same as segment(segmentOf(i)) / i - segmentBegin(...), without
     * a second dispatch.
     */
    T *
    locate(std::uint64_t i, std::uint64_t &offset) const
    {
        if (i >> chunkBits_) {
            offset = i & chunkMask_;
            return fixed_[i >> chunkBits_];
        }
        const auto width =
            static_cast<std::uint32_t>(std::bit_width(i | firstMask_));
        offset = i - ((std::uint64_t{1} << (width - 1)) & ~firstMask_);
        return ramp_[width - firstBits_];
    }

    /** Entry @p i; its segment must be allocated and present. */
    T &
    operator[](std::uint64_t i) const
    {
        std::uint64_t offset;
        T *base = locate(i, offset);
        return base[offset];
    }

    /**
     * Append segments until index @p i is covered.  @p alloc(seg,
     * entries) returns storage for segment @p seg of @p entries
     * entries.
     */
    template <typename Alloc>
    void
    cover(std::uint64_t i, Alloc &&alloc)
    {
        const std::uint32_t need = segmentOf(i);
        while (count_ <= need) {
            const std::uint32_t seg = count_;
            T *base = alloc(seg, segmentLength(seg));
            if (seg >= rampSegs_ && !fixed_) {
                // One-time, capacity-sized: never reallocates.
                fixedSlots_ = (capacity_ >> chunkBits_) + 1;
                fixed_.reset(new T *[fixedSlots_]);
            }
            if (seg < rampSegs_)
                ramp_[seg] = base;
            else
                fixed_[seg - rampSegs_ + 1] = base;
            ++count_;
        }
    }

    /** Heap bytes of the chunk pointer table (0 until a run grows
     * past the ramp). */
    std::uint64_t
    tableBytes() const
    {
        return fixedSlots_ * sizeof(T *);
    }

  private:
    T *ramp_[kMaxRamp] = {};
    /** Chunk j >= 1 at fixed_[j] (slot 0 unused: the ramp covers
     * [0, 2^C)). */
    std::unique_ptr<T *[]> fixed_;
    std::uint64_t fixedSlots_ = 0;
    std::uint64_t capacity_ = 0;
    std::uint64_t firstMask_ = 0;
    std::uint64_t chunkMask_ = 0;
    std::uint32_t firstBits_ = 1;
    std::uint32_t chunkBits_ = 1;
    std::uint32_t rampSegs_ = 1;
    std::uint32_t count_ = 0;
};

} // namespace cxl

#endif // CXL_CHECKER_STORE_SEGMENTS_HH
