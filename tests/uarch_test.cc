/**
 * @file
 * Microarchitecture-model tests: cache geometry/LRU behaviour, branch
 * predictor learning, dispatch predictor, counter arithmetic, and the
 * perf model's end-to-end event accounting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "support/logging.hh"
#include "uarch/branch.hh"
#include "uarch/cache.hh"
#include "uarch/counters.hh"
#include "uarch/perf_model.hh"
#include "support/rng.hh"

namespace rigor {
namespace uarch {
namespace {

TEST(Cache, HitsAfterFill)
{
    Cache c({1024, 64, 2});
    EXPECT_FALSE(c.access(0));       // cold miss
    EXPECT_TRUE(c.access(0));        // hit
    EXPECT_TRUE(c.access(63));       // same line
    EXPECT_FALSE(c.access(64));      // next line: miss
    EXPECT_EQ(c.accesses(), 4u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEvictionWithinSet)
{
    // 2-way, 8 sets of 64B lines: addresses 0, 512, 1024 map to set 0.
    Cache c({1024, 64, 2});
    EXPECT_FALSE(c.access(0));
    EXPECT_FALSE(c.access(512));
    EXPECT_TRUE(c.access(0));       // refreshes 0's LRU
    EXPECT_FALSE(c.access(1024));   // evicts 512 (LRU)
    EXPECT_TRUE(c.access(0));
    EXPECT_FALSE(c.access(512));    // was evicted
}

TEST(Cache, WorkingSetLargerThanCacheThrashes)
{
    Cache c({4096, 64, 4});
    // Working set of 4 KiB fits: second pass all hits.
    for (uint64_t a = 0; a < 4096; a += 64)
        c.access(a);
    uint64_t misses_before = c.misses();
    for (uint64_t a = 0; a < 4096; a += 64)
        EXPECT_TRUE(c.access(a));
    EXPECT_EQ(c.misses(), misses_before);
    // 64 KiB working set cannot fit: mostly misses.
    c.reset();
    for (int pass = 0; pass < 2; ++pass)
        for (uint64_t a = 0; a < 65536; a += 64)
            c.access(a);
    EXPECT_GT(c.misses(), c.accesses() / 2);
}

TEST(Cache, BadGeometryPanics)
{
    EXPECT_THROW(Cache({1000, 60, 2}), PanicError);
    EXPECT_THROW(Cache({1024, 64, 0}), PanicError);
    EXPECT_THROW(Cache({256 * 64, 64, 256}), PanicError);  // > 255 ways
}

/**
 * The list-of-structs cache model Cache replaced, kept as a reference:
 * {tag, lru, valid} per way, scanned linearly, invalid way first, else
 * the least recently used way. `tagShift` 1 is the old tag
 * (`line_addr >> 1`); 0 tags with the whole line address.
 */
class ReferenceCache
{
  public:
    ReferenceCache(CacheGeometry geometry, unsigned tagShift)
        : geom(geometry), setCount(geometry.numSets()), shift(tagShift),
          lines(static_cast<size_t>(setCount) * geometry.ways)
    {}

    bool
    access(uint64_t addr)
    {
        ++accessCount;
        uint64_t line_addr = addr / geom.lineBytes;
        uint32_t set = static_cast<uint32_t>(line_addr & (setCount - 1));
        uint64_t tag = line_addr >> shift;
        Line *base = &lines[static_cast<size_t>(set) * geom.ways];
        Line *victim = base;
        for (uint32_t w = 0; w < geom.ways; ++w) {
            Line &l = base[w];
            if (l.valid && l.tag == tag) {
                l.lru = ++lruClock;
                return true;
            }
            if (!l.valid)
                victim = &l;
            else if (victim->valid && l.lru < victim->lru)
                victim = &l;
        }
        ++missCount;
        victim->valid = true;
        victim->tag = tag;
        victim->lru = ++lruClock;
        return false;
    }

    void
    reset()
    {
        for (auto &l : lines)
            l = {};
        lruClock = accessCount = missCount = 0;
    }

    uint64_t accesses() const { return accessCount; }
    uint64_t misses() const { return missCount; }

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint64_t lru = 0;
        bool valid = false;
    };

    CacheGeometry geom;
    uint32_t setCount;
    unsigned shift;
    std::vector<Line> lines;
    uint64_t lruClock = 0;
    uint64_t accessCount = 0;
    uint64_t missCount = 0;
};

/**
 * A seeded address stream with reuse at several distances: a hot
 * handful of lines, a working set near the cache size, and cold
 * addresses over four times the cache.
 */
uint64_t
nextAddress(Rng &rng, const CacheGeometry &g)
{
    uint64_t size = g.sizeBytes;
    switch (rng.nextBounded(3)) {
      case 0: return rng.nextBounded(8) * g.lineBytes;
      case 1: return rng.nextBounded(size + size / 2);
      default: return rng.nextBounded(4 * size);
    }
}

TEST(Cache, PackedMruSetsMatchTheReferenceLru)
{
    uint64_t seed = 1;
    for (uint32_t ways : {1u, 2u, 8u, 16u}) {
        for (uint32_t sets = 1; sets <= 8192; sets *= 2) {
            CacheGeometry g{sets * 64 * ways, 64, ways};
            Cache cache(g);
            ReferenceCache whole(g, 0);
            // The old `line_addr >> 1` tag tells the lines of one set
            // apart only when there are at least two sets.
            ReferenceCache shifted(g, 1);
            Rng rng(seed++);
            const int n = 6000;
            for (int i = 0; i < n; ++i) {
                if (i == n / 2) {
                    cache.reset();
                    whole.reset();
                    shifted.reset();
                }
                uint64_t addr = nextAddress(rng, g);
                bool hit = cache.access(addr);
                ASSERT_EQ(hit, whole.access(addr))
                    << ways << " ways, " << sets << " sets, access " << i;
                if (sets > 1) {
                    ASSERT_EQ(hit, shifted.access(addr))
                        << ways << " ways, " << sets << " sets, access "
                        << i;
                }
            }
            EXPECT_EQ(cache.accesses(), whole.accesses());
            EXPECT_EQ(cache.misses(), whole.misses());
            EXPECT_GT(cache.misses(), 0u);
            if (sets > 1) {
                EXPECT_EQ(cache.misses(), shifted.misses());
            }
        }
    }
}

TEST(Cache, SingleSetTellsAdjacentLinesApart)
{
    // Fully associative: one set of two ways. Lines 0 and 1 are
    // distinct lines, so the second access misses.
    Cache c({128, 64, 2});
    EXPECT_FALSE(c.access(0));
    EXPECT_FALSE(c.access(64));
    EXPECT_TRUE(c.access(0));
    EXPECT_TRUE(c.access(64));
}

TEST(CacheHierarchyTest, LatencyIncreasesDownTheHierarchy)
{
    auto h = CacheHierarchy::makeDefault();
    uint32_t first = h.access(0x1000);     // cold: DRAM
    uint32_t second = h.access(0x1000);    // L1 hit
    EXPECT_GT(first, 100u);
    EXPECT_EQ(second, 0u);
}

TEST(CacheHierarchyTest, L2CatchesL1Evictions)
{
    auto h = CacheHierarchy::makeDefault();
    // Fill 64 KiB (2x L1 size): L1 thrashes, L2 holds everything.
    for (int pass = 0; pass < 2; ++pass)
        for (uint64_t a = 0; a < 65536; a += 64)
            h.access(a);
    EXPECT_GT(h.l1().misses(), 1000u);
    // Second pass L2 misses are near zero (all lines resident).
    uint64_t l2_before = h.l2().misses();
    for (uint64_t a = 0; a < 65536; a += 64)
        h.access(a);
    EXPECT_LE(h.l2().misses() - l2_before, 16u);
}

TEST(Branch, BimodalLearnsBiasedBranch)
{
    BimodalPredictor p;
    int correct = 0;
    for (int i = 0; i < 1000; ++i)
        if (p.predictAndUpdate(0x42, true))
            ++correct;
    EXPECT_GT(correct, 990);
}

TEST(Branch, BimodalToleratesOccasionalFlip)
{
    BimodalPredictor p;
    // Loop-branch pattern: 9 taken, 1 not-taken.
    int correct = 0;
    for (int i = 0; i < 1000; ++i)
        if (p.predictAndUpdate(0x7, i % 10 != 9))
            ++correct;
    EXPECT_GT(correct, 850);
}

TEST(Branch, GshareLearnsAlternatingPattern)
{
    GsharePredictor g;
    BimodalPredictor b;
    int g_correct = 0, b_correct = 0;
    for (int i = 0; i < 4000; ++i) {
        bool taken = i % 2 == 0;
        if (g.predictAndUpdate(0x9, taken))
            ++g_correct;
        if (b.predictAndUpdate(0x9, taken))
            ++b_correct;
    }
    // History-based gshare nails it; bimodal is ~50/50.
    EXPECT_GT(g_correct, 3800);
    EXPECT_LT(b_correct, 2600);
}

TEST(Branch, ResetClearsLearning)
{
    BimodalPredictor p;
    for (int i = 0; i < 100; ++i)
        p.predictAndUpdate(1, true);
    p.reset();
    // Initial counter state predicts not-taken.
    EXPECT_FALSE(p.predictAndUpdate(1, true));
}

TEST(Branch, DispatchPredictorLearnsRepeatingSequence)
{
    DispatchPredictor d;
    // A repeating 4-opcode loop body becomes predictable.
    const uint16_t seq[] = {3, 7, 11, 19};
    int correct = 0;
    for (int i = 0; i < 4000; ++i)
        if (d.predictAndUpdate(seq[i % 4]))
            ++correct;
    EXPECT_GT(correct, 3800);
    // Random opcodes are unpredictable.
    d.reset();
    correct = 0;
    uint64_t x = 12345;
    for (int i = 0; i < 4000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        if (d.predictAndUpdate(static_cast<uint16_t>(x >> 33 & 31)))
            ++correct;
    }
    EXPECT_LT(correct, 1200);
}

TEST(Counters, DiffAndAdd)
{
    CounterSet a;
    a.instructions = 1000;
    a.cycles = 500;
    a.branchMisses = 10;
    CounterSet b = a;
    b.instructions = 3000;
    b.cycles = 1500;
    b.branchMisses = 25;
    CounterSet d = b.diff(a);
    EXPECT_EQ(d.instructions, 2000u);
    EXPECT_EQ(d.cycles, 1000u);
    EXPECT_EQ(d.branchMisses, 15u);
    d.add(a);
    EXPECT_EQ(d.instructions, 3000u);
    // diff clamps at zero instead of underflowing.
    CounterSet neg = a.diff(b);
    EXPECT_EQ(neg.instructions, 0u);
}

TEST(Counters, DerivedMetrics)
{
    CounterSet c;
    c.instructions = 10000;
    c.cycles = 5000;
    c.branches = 1000;
    c.branchMisses = 50;
    c.l1dMisses = 20;
    c.llcMisses = 5;
    EXPECT_DOUBLE_EQ(c.ipc(), 2.0);
    EXPECT_DOUBLE_EQ(c.branchMpki(), 5.0);
    EXPECT_DOUBLE_EQ(c.l1dMpki(), 2.0);
    EXPECT_DOUBLE_EQ(c.llcMpki(), 0.5);
    EXPECT_DOUBLE_EQ(c.branchMissRate(), 0.05);
    CounterSet zero;
    EXPECT_DOUBLE_EQ(zero.ipc(), 0.0);
    EXPECT_DOUBLE_EQ(zero.branchMpki(), 0.0);
}

TEST(PerfModelTest, AccountsBytecodesAndUops)
{
    PerfModel m;
    m.onBytecode(vm::Op::BinaryAdd, 8);
    m.onBytecode(vm::Op::LoadFast, 2);
    CounterSet c = m.snapshot();
    EXPECT_EQ(c.bytecodes, 2u);
    EXPECT_EQ(c.instructions, 10u);
    EXPECT_GT(c.cycles, 0u);
}

TEST(PerfModelTest, MispredictsAddCycles)
{
    PerfModelConfig cfg;
    PerfModel m(cfg);
    for (int i = 0; i < 100; ++i)
        m.onBytecode(vm::Op::Nop, 4);
    uint64_t base = m.snapshot().cycles;
    // Random branches: roughly half mispredict, adding penalties.
    Rng rng(3);
    for (int i = 0; i < 200; ++i)
        m.onBranch(i, rng.nextBernoulli(0.5));
    EXPECT_GT(m.snapshot().cycles, base);
    EXPECT_GT(m.snapshot().branchMisses, 20u);
}

TEST(PerfModelTest, CacheMissesRaiseCycles)
{
    PerfModel warm;
    PerfModel cold;
    for (int i = 0; i < 1000; ++i) {
        warm.onBytecode(vm::Op::Nop, 4);
        cold.onBytecode(vm::Op::Nop, 4);
        warm.onMemAccess(0x100, 8, false);          // same line
        cold.onMemAccess(0x100 + i * 4096, 8, false);  // streaming
    }
    EXPECT_LT(warm.snapshot().cycles, cold.snapshot().cycles);
    EXPECT_LT(warm.snapshot().l1dMisses, 5u);
    EXPECT_GT(cold.snapshot().l1dMisses, 900u);
}

TEST(PerfModelTest, MissCountersMatchEachLevel)
{
    PerfModel m;
    Rng rng(11);
    for (int i = 0; i < 200000; ++i) {
        // Reuse across L1, L2 and LLC sizes, plus spanning accesses.
        uint64_t span = uint64_t{1} << (12 + 2 * rng.nextBounded(7));
        m.onMemAccess(rng.nextBounded(span), 1 + rng.nextBounded(16),
                      rng.nextBernoulli(0.3));
        if (i % 7 == 0)
            m.onAlloc(rng.nextBounded(span), 96);
    }
    const CacheHierarchy &h = m.dataCaches();
    CounterSet c = m.snapshot();
    EXPECT_EQ(c.l1dAccesses, h.l1().accesses());
    EXPECT_EQ(c.l1dMisses, h.l1().misses());
    EXPECT_EQ(c.l2Misses, h.l2().misses());
    EXPECT_EQ(c.llcMisses, h.llc().misses());
    // Each level sees exactly the misses of the level above.
    EXPECT_EQ(h.l2().accesses(), h.l1().misses());
    EXPECT_EQ(h.llc().accesses(), h.l2().misses());
    EXPECT_GT(c.llcMisses, 0u);
    EXPECT_LT(c.llcMisses, c.l2Misses);
    EXPECT_LT(c.l2Misses, c.l1dMisses);
}

TEST(CacheHierarchyTest, AccessLevelNamesTheLevelThatHit)
{
    auto h = CacheHierarchy::makeDefault();
    EXPECT_EQ(h.accessLevel(0x1000), CacheHierarchy::Dram);
    EXPECT_EQ(h.accessLevel(0x1000), CacheHierarchy::L1);
    // Evict 0x1000 from the 8-way L1 set (4 KiB apart) but not L2.
    for (uint64_t i = 1; i <= 8; ++i)
        h.accessLevel(0x1000 + i * 4096);
    EXPECT_EQ(h.accessLevel(0x1000), CacheHierarchy::L2);
    EXPECT_EQ(h.latency(CacheHierarchy::L1), 0u);
    MemoryLatencies lat;
    EXPECT_EQ(h.latency(CacheHierarchy::L2), lat.l2Hit);
    EXPECT_EQ(h.latency(CacheHierarchy::Llc), lat.llcHit);
    EXPECT_EQ(h.latency(CacheHierarchy::Dram), lat.dram);
}

TEST(PerfModelTest, AblationDisablesModels)
{
    PerfModelConfig cfg;
    cfg.modelCaches = false;
    cfg.modelBranches = false;
    PerfModel m(cfg);
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        m.onMemAccess(static_cast<uint64_t>(i) * 4096, 8, false);
        m.onBranch(i, rng.nextBernoulli(0.5));
    }
    CounterSet c = m.snapshot();
    EXPECT_EQ(c.l1dMisses, 0u);
    EXPECT_EQ(c.branchMisses, 0u);
    EXPECT_EQ(c.cycles, 0u);
    EXPECT_EQ(c.loads, 500u);
    EXPECT_EQ(c.branches, 500u);
}

TEST(PerfModelTest, ResetAndResetCounters)
{
    PerfModel m;
    m.onMemAccess(0x40, 8, false);
    m.onBytecode(vm::Op::Nop, 4);
    m.resetCounters();
    EXPECT_EQ(m.snapshot().instructions, 0u);
    // Counters cleared but cache still warm: the same line hits.
    m.onMemAccess(0x40, 8, false);
    EXPECT_EQ(m.snapshot().l1dMisses, 0u);
    m.reset();
    m.onMemAccess(0x40, 8, false);
    EXPECT_EQ(m.snapshot().l1dMisses, 1u);
}

TEST(PerfModelTest, SpanningAccessTouchesTwoLines)
{
    PerfModel m;
    m.onMemAccess(60, 8, false);  // crosses the 64B boundary
    EXPECT_EQ(m.snapshot().l1dAccesses, 2u);
}


TEST(PerfModelTest, ICacheModelsCodeFootprint)
{
    PerfModel m;
    // Interpreter-like: 40 handlers touched round-robin fits L1I.
    for (int i = 0; i < 20000; ++i)
        m.onCodeFetch(0x400000ULL +
                      static_cast<uint64_t>(i % 40) * 192);
    CounterSet interp_like = m.snapshot();
    EXPECT_LT(interp_like.l1iMisses, 200u);

    // JIT-like: a 512 KiB code region streamed repeatedly thrashes.
    m.reset();
    for (int i = 0; i < 20000; ++i)
        m.onCodeFetch(0x100000000ULL +
                      static_cast<uint64_t>(i % 8192) * 64);
    CounterSet jit_like = m.snapshot();
    EXPECT_GT(jit_like.l1iMisses, 15000u);
    EXPECT_GT(jit_like.l1iAccesses, 0u);
}

TEST(PerfModelTest, ICacheDisabledWithCacheAblation)
{
    PerfModelConfig cfg;
    cfg.modelCaches = false;
    PerfModel m(cfg);
    for (int i = 0; i < 100; ++i)
        m.onCodeFetch(static_cast<uint64_t>(i) * 4096);
    EXPECT_EQ(m.snapshot().l1iMisses, 0u);
    EXPECT_EQ(m.snapshot().l1iAccesses, 0u);
}

} // namespace
} // namespace uarch
} // namespace rigor
