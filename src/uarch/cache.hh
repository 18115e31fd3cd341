/**
 * @file
 * Set-associative cache model with true-LRU replacement, composable
 * into a three-level hierarchy (L1D, L2, LLC).
 */

#ifndef RIGOR_UARCH_CACHE_HH
#define RIGOR_UARCH_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

namespace rigor {
namespace uarch {

/** Geometry of one cache level. */
struct CacheGeometry
{
    uint32_t sizeBytes = 32 * 1024;
    uint32_t lineBytes = 64;
    uint32_t ways = 8;

    uint32_t
    numSets() const
    {
        return sizeBytes / (lineBytes * ways);
    }
};

/**
 * One cache level; true-LRU replacement, write-allocate.
 *
 * Each set is a packed row of `ways` tags kept in recency order, most
 * recently used first, plus a count of the valid ways at its front. A
 * hit moves its tag to the front; a miss inserts at the front and, when
 * the set is full, drops the last (least recently used) tag. Ways only
 * become invalid on reset(), so filling the front before evicting is
 * the same choice as "invalid way first, else the LRU way".
 */
class Cache
{
  public:
    explicit Cache(CacheGeometry geometry);

    /**
     * Access one line-aligned address.
     * @return true on hit.
     */
    bool access(uint64_t addr);

    /** Drop all cached lines. O(sets): the tag rows are not touched. */
    void reset();

    uint64_t accesses() const { return accessCount; }
    uint64_t misses() const { return missCount; }
    const CacheGeometry &geometry() const { return geom; }

  private:
    CacheGeometry geom;
    uint32_t setMask;
    uint32_t lineShift;
    /**
     * sets * ways tags, row-major by set, MRU first. Only the first
     * validWays[set] slots of a row are ever read, and each is written
     * before that, so the rows are left uninitialised: a model whose
     * large levels see few distinct lines never touches most of them.
     */
    std::unique_ptr<uint64_t[]> tags;
    std::vector<uint8_t> validWays;   ///< valid (front) ways per set
    uint64_t accessCount = 0;
    uint64_t missCount = 0;
};

inline bool
Cache::access(uint64_t addr)
{
    ++accessCount;
    // The whole line address is the tag. Within a set, any tag that
    // tells lines apart behaves the same.
    uint64_t tag = addr >> lineShift;
    uint32_t set = static_cast<uint32_t>(tag) & setMask;
    uint64_t *row = &tags[static_cast<size_t>(set) * geom.ways];
    uint32_t valid = validWays[set];
    for (uint32_t w = 0; w < valid; ++w) {
        if (row[w] == tag) {
            for (; w > 0; --w)
                row[w] = row[w - 1];
            row[0] = tag;
            return true;
        }
    }
    ++missCount;
    if (valid < geom.ways)
        validWays[set] = static_cast<uint8_t>(valid + 1);
    else
        valid = geom.ways - 1;   // the LRU tag falls off the end
    for (uint32_t w = valid; w > 0; --w)
        row[w] = row[w - 1];
    row[0] = tag;
    return false;
}

/** Latencies (cycles) of the memory hierarchy. */
struct MemoryLatencies
{
    uint32_t l1Hit = 1;     ///< folded into base uop cost
    uint32_t l2Hit = 12;
    uint32_t llcHit = 40;
    uint32_t dram = 180;
};

/**
 * Three-level data-cache hierarchy. accessLevel() walks the levels and
 * returns the one that served the access; latency() prices it.
 */
class CacheHierarchy
{
  public:
    /** Level that served an access: L1, L2, LLC, or memory. */
    enum Level : unsigned { L1 = 0, L2 = 1, Llc = 2, Dram = 3 };

    CacheHierarchy(CacheGeometry l1, CacheGeometry l2,
                   CacheGeometry llc, MemoryLatencies lat = {});

    /** Default desktop-class geometry (32K/256K/8M). */
    static CacheHierarchy makeDefault();

    /**
     * Perform one access. A level is consulted (and counted) only when
     * every level above it missed, so the result is also the number of
     * levels that missed.
     * @return the level that hit (0 = L1 ... 3 = DRAM).
     */
    unsigned
    accessLevel(uint64_t addr)
    {
        if (l1Cache.access(addr))
            return L1;
        if (l2Cache.access(addr))
            return L2;
        if (llcCache.access(addr))
            return Llc;
        return Dram;
    }

    /** Modelled latency in cycles beyond the L1-hit cost of a level. */
    uint32_t latency(unsigned level) const { return levelLatency[level]; }

    /** One access priced: latency(accessLevel(addr)). */
    uint32_t access(uint64_t addr) { return latency(accessLevel(addr)); }

    /** Invalidate all levels. */
    void reset();

    const Cache &l1() const { return l1Cache; }
    const Cache &l2() const { return l2Cache; }
    const Cache &llc() const { return llcCache; }

  private:
    Cache l1Cache;
    Cache l2Cache;
    Cache llcCache;
    /** By Level; the L1-hit cost is folded into the base uop cost. */
    uint32_t levelLatency[4];
};

} // namespace uarch
} // namespace rigor

#endif // RIGOR_UARCH_CACHE_HH
