/**
 * @file
 * Steady-state / changepoint detector tests on synthetic series with
 * known structure (flat, warmup step, slowdown, oscillation), with
 * and without noise.
 */

#include <gtest/gtest.h>

#include "stats/steady_state.hh"
#include "support/rng.hh"

namespace rigor {
namespace stats {
namespace {

std::vector<double>
noisy(std::vector<double> base, double sigma, uint64_t seed)
{
    Rng rng(seed);
    for (auto &v : base)
        v += rng.nextGaussian(0.0, sigma);
    return base;
}

std::vector<double>
step(size_t before, double hi, size_t after, double lo)
{
    std::vector<double> xs(before, hi);
    xs.insert(xs.end(), after, lo);
    return xs;
}

TEST(SteadyState, FlatSeriesIsFlat)
{
    auto xs = noisy(std::vector<double>(50, 10.0), 0.05, 1);
    auto r = detectSteadyState(xs);
    EXPECT_EQ(r.classification, SeriesClass::Flat);
    EXPECT_EQ(r.steadyStart, 0u);
    EXPECT_NEAR(r.steadyMean, 10.0, 0.1);
}

TEST(SteadyState, CleanWarmupStep)
{
    auto xs = step(10, 20.0, 40, 10.0);
    auto r = detectSteadyState(xs);
    EXPECT_EQ(r.classification, SeriesClass::Warmup);
    EXPECT_NEAR(static_cast<double>(r.steadyStart), 10.0, 2.0);
    EXPECT_NEAR(r.steadyMean, 10.0, 0.2);
}

TEST(SteadyState, NoisyWarmupStep)
{
    auto xs = noisy(step(12, 30.0, 48, 10.0), 0.4, 3);
    auto r = detectSteadyState(xs);
    EXPECT_EQ(r.classification, SeriesClass::Warmup);
    EXPECT_NEAR(static_cast<double>(r.steadyStart), 12.0, 3.0);
    EXPECT_NEAR(r.steadyMean, 10.0, 0.5);
}

TEST(SteadyState, MultiPhaseWarmup)
{
    // Three descending levels: typical staged JIT compilation.
    std::vector<double> xs(8, 30.0);
    xs.insert(xs.end(), 8, 20.0);
    xs.insert(xs.end(), 44, 10.0);
    auto r = detectSteadyState(noisy(xs, 0.2, 5));
    EXPECT_EQ(r.classification, SeriesClass::Warmup);
    EXPECT_GE(r.steadyStart, 12u);
    EXPECT_LE(r.steadyStart, 20u);
    EXPECT_NEAR(r.steadyMean, 10.0, 0.5);
}

TEST(SteadyState, SlowdownDetected)
{
    auto xs = noisy(step(30, 10.0, 30, 14.0), 0.1, 7);
    auto r = detectSteadyState(xs);
    EXPECT_EQ(r.classification, SeriesClass::Slowdown);
}

TEST(SteadyState, NoSteadyStateWhenFinalSegmentTooShort)
{
    // Level change in the last few iterations only.
    auto xs = step(56, 10.0, 4, 30.0);
    auto r = detectSteadyState(noisy(xs, 0.05, 11));
    EXPECT_EQ(r.classification, SeriesClass::NoSteadyState);
    EXPECT_FALSE(r.hasSteadyState());
    EXPECT_EQ(r.steadyStart, xs.size());
}

TEST(SteadyState, EquivalentLevelsMerge)
{
    // Two levels within tolerance merge into one flat segment.
    auto xs = step(25, 10.0, 25, 10.2);
    SteadyStateOptions opts;
    opts.equivalenceTolerance = 0.05;
    auto r = detectSteadyState(xs, opts);
    EXPECT_EQ(r.classification, SeriesClass::Flat);
}

TEST(SteadyState, SpikeDoesNotBreakDetection)
{
    auto xs = noisy(step(10, 20.0, 50, 10.0), 0.1, 13);
    xs[30] = 25.0;  // one outlier spike in steady state
    auto r = detectSteadyState(xs);
    EXPECT_TRUE(r.hasSteadyState());
    EXPECT_EQ(r.classification, SeriesClass::Warmup);
}

TEST(Segmentation, SingleSegmentForShortSeries)
{
    std::vector<double> xs = {1.0, 2.0, 1.5};
    auto segs = segmentSeries(xs);
    ASSERT_EQ(segs.size(), 1u);
    EXPECT_EQ(segs[0].begin, 0u);
    EXPECT_EQ(segs[0].end, 3u);
}

TEST(Segmentation, SegmentsTileTheSeries)
{
    Rng rng(21);
    std::vector<double> xs;
    for (int i = 0; i < 40; ++i)
        xs.push_back(rng.nextGaussian(i < 20 ? 5.0 : 1.0, 0.1));
    auto segs = segmentSeries(xs);
    ASSERT_GE(segs.size(), 2u);
    EXPECT_EQ(segs.front().begin, 0u);
    EXPECT_EQ(segs.back().end, xs.size());
    for (size_t i = 1; i < segs.size(); ++i)
        EXPECT_EQ(segs[i].begin, segs[i - 1].end);
}

TEST(Segmentation, PenaltySuppressesSpuriousSplits)
{
    Rng rng(22);
    std::vector<double> xs;
    for (int i = 0; i < 200; ++i)
        xs.push_back(rng.nextGaussian(10.0, 1.0));
    SteadyStateOptions opts;
    opts.penaltyFactor = 6.0;
    auto segs = segmentSeries(xs, opts);
    EXPECT_LE(segs.size(), 2u);
}

/** Property sweep: detector finds planted changepoints within +-3. */
class PlantedChangepoint
    : public ::testing::TestWithParam<std::tuple<int, double>>
{
};

TEST_P(PlantedChangepoint, LocatesStep)
{
    auto [cut, sigma] = GetParam();
    auto xs = noisy(step(static_cast<size_t>(cut), 40.0,
                         static_cast<size_t>(80 - cut), 10.0),
                    sigma, static_cast<uint64_t>(cut * 100 + 7));
    auto r = detectSteadyState(xs);
    ASSERT_EQ(r.classification, SeriesClass::Warmup)
        << "cut=" << cut << " sigma=" << sigma;
    EXPECT_NEAR(static_cast<double>(r.steadyStart),
                static_cast<double>(cut), 3.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlantedChangepoint,
    ::testing::Combine(::testing::Values(8, 16, 24, 40),
                       ::testing::Values(0.1, 0.5, 1.5)));

} // namespace
} // namespace stats
} // namespace rigor
