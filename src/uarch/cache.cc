#include "uarch/cache.hh"

#include <algorithm>
#include <bit>

#include "support/logging.hh"

namespace rigor {
namespace uarch {

Cache::Cache(CacheGeometry geometry)
    : geom(geometry)
{
    if (geom.lineBytes == 0 || (geom.lineBytes & (geom.lineBytes - 1)))
        panic("Cache: line size must be a power of two");
    if (geom.ways == 0)
        panic("Cache: need at least one way");
    if (geom.ways > UINT8_MAX)
        panic("Cache: at most 255 ways (got %u)", geom.ways);
    uint32_t sets = geom.numSets();
    if (sets == 0 || (sets & (sets - 1)))
        panic("Cache: set count must be a power of two (size %u)",
              geom.sizeBytes);
    setMask = sets - 1;
    lineShift = static_cast<uint32_t>(std::countr_zero(geom.lineBytes));
    tags = std::make_unique_for_overwrite<uint64_t[]>(
        static_cast<size_t>(sets) * geom.ways);
    validWays.assign(sets, 0);
}

void
Cache::reset()
{
    std::fill(validWays.begin(), validWays.end(), 0);
    accessCount = 0;
    missCount = 0;
}

CacheHierarchy::CacheHierarchy(CacheGeometry l1, CacheGeometry l2,
                               CacheGeometry llc, MemoryLatencies lat)
    : l1Cache(l1), l2Cache(l2), llcCache(llc),
      levelLatency{0, lat.l2Hit, lat.llcHit, lat.dram}
{}

CacheHierarchy
CacheHierarchy::makeDefault()
{
    CacheGeometry l1{32 * 1024, 64, 8};
    CacheGeometry l2{256 * 1024, 64, 8};
    CacheGeometry llc{8 * 1024 * 1024, 64, 16};
    return CacheHierarchy(l1, l2, llc);
}

void
CacheHierarchy::reset()
{
    l1Cache.reset();
    l2Cache.reset();
    llcCache.reset();
}

} // namespace uarch
} // namespace rigor
