#include "checker/store_columns.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>

namespace cxl
{
namespace
{

/** Smallest power of two >= n, floored at 16. */
std::size_t
pow2AtLeast(std::size_t n)
{
    return std::bit_ceil(std::max<std::size_t>(n, 16));
}

} // namespace

void
ShardColumns::init(ShardMem *mem, bool keep_verifies,
                   std::size_t initial_buckets,
                   std::uint32_t max_entries)
{
    mem_ = mem;
    keepVerifies_ = keep_verifies;
    depths_.init(kDepthFirstBits, kDepthChunkBits, max_entries);
    sizeBuckets(pow2AtLeast(initial_buckets));
}

void
ShardColumns::sizeBuckets(std::size_t cap)
{
    buckets_ = static_cast<std::uint32_t *>(mem_->flatGrow(
        ShardMem::kFlatBuckets, cap * sizeof(std::uint32_t)));
    std::memset(buckets_, 0, cap * sizeof(std::uint32_t));
    mask_ = cap - 1;
    // Rehash from the stored probe hashes — state bytes are never
    // touched, which also makes growth possible while the arena layer
    // has already released (or paged out) old state bytes.
    for (std::uint32_t off = 0; off < count_; ++off) {
        std::uint64_t slot = hashes_[off] & mask_;
        while (buckets_[slot] != 0)
            slot = (slot + 1) & mask_;
        buckets_[slot] = off + 1;
    }
}

void
ShardColumns::growColumns(std::size_t need)
{
    std::size_t cap = entryCap_ == 0 ? kFirstEntries : entryCap_;
    while (cap < need)
        cap *= 2;
    hashes_ = static_cast<std::uint64_t *>(mem_->flatGrow(
        ShardMem::kFlatHashes, cap * sizeof(std::uint64_t)));
    if (keepVerifies_) {
        verifies_ = static_cast<std::uint64_t *>(mem_->flatGrow(
            ShardMem::kFlatVerifies, cap * sizeof(std::uint64_t)));
    }
    parents_ = static_cast<std::uint32_t *>(mem_->flatGrow(
        ShardMem::kFlatParents, cap * sizeof(std::uint32_t)));
    rules_ = static_cast<std::uint16_t *>(mem_->flatGrow(
        ShardMem::kFlatRules, cap * sizeof(std::uint16_t)));
    entryCap_ = cap;
}

std::uint32_t
ShardColumns::append(std::uint64_t hash, std::uint64_t verify,
                     std::uint32_t parent, std::uint16_t rule,
                     std::uint32_t depth)
{
    const std::uint32_t off = count_;
    if (off >= entryCap_)
        growColumns(static_cast<std::size_t>(off) + 1);
    hashes_[off] = hash;
    if (keepVerifies_)
        verifies_[off] = verify;
    parents_[off] = parent;
    rules_[off] = rule;
    depths_.cover(off, [this](std::uint32_t, std::uint64_t entries) {
        return static_cast<std::atomic<std::uint32_t> *>(
            mem_->chunkAlloc(entries *
                                 sizeof(std::atomic<std::uint32_t>),
                             StoreLayer::Columns));
    });
    // Cells are constructed as their entries are appended, never a
    // whole segment ahead: readers only reach published entries.
    new (&depths_[off]) std::atomic<std::uint32_t>(depth);
    ++count_;
    return off;
}

void
ShardColumns::reserveEntries(std::size_t entries)
{
    // Buckets at 2x the entry hint keep the load factor <= 0.5
    // through the expected run, so probes stay short and no rehash
    // pause lands mid-exploration.
    const std::size_t cap = pow2AtLeast(2 * entries);
    if (cap > mask_ + 1)
        sizeBuckets(cap);
    if (entries > entryCap_)
        growColumns(entries);
    // A first depth segment that holds the whole hint; a hint that
    // fills a chunk drops the ramp altogether.
    depths_.presize(entries, kDepthFirstBits);
}

std::uint64_t
ShardColumns::allocatedBytes() const
{
    return mem_->allocatedBytes(StoreLayer::Columns) +
           depths_.tableBytes();
}

} // namespace cxl
