/**
 * @file
 * Hardware model tests: the Sec. VI-A platform presets and the derived
 * throughput/bandwidth quantities the evaluator depends on.
 */
#include <gtest/gtest.h>

#include "hw/hardware.h"

namespace soma {
namespace {

TEST(Hardware, EdgePresetMatchesPaperSpec)
{
    HardwareConfig hw = EdgeAccelerator();
    // ~16 TOPS (paper references 15-17 TOPS phone-class NPUs).
    EXPECT_NEAR(hw.PeakTops(), 16.0, 1.0);
    EXPECT_EQ(hw.gbuf_bytes, 8LL * 1024 * 1024);
    EXPECT_DOUBLE_EQ(hw.dram_gbps, 16.0);
}

TEST(Hardware, CloudPresetMatchesPaperSpec)
{
    HardwareConfig hw = CloudAccelerator();
    // ~128 TOPS (Orin / TPU-v4i class).
    EXPECT_NEAR(hw.PeakTops(), 128.0, 8.0);
    EXPECT_EQ(hw.gbuf_bytes, 32LL * 1024 * 1024);
    EXPECT_DOUBLE_EQ(hw.dram_gbps, 128.0);
}

TEST(Hardware, PeakOpsConsistentWithGeometry)
{
    HardwareConfig hw = EdgeAccelerator();
    double expected = 2.0 * hw.cores * hw.pe_rows_per_core *
                      hw.pe_cols_per_core * hw.freq_ghz * 1e9;
    EXPECT_DOUBLE_EQ(hw.PeakOpsPerSecond(), expected);
}

TEST(Hardware, DramSecondsLinearInBytes)
{
    HardwareConfig hw = EdgeAccelerator();
    EXPECT_DOUBLE_EQ(hw.DramSeconds(0), 0.0);
    EXPECT_NEAR(hw.DramSeconds(16'000'000'000LL), 1.0, 1e-12);
    EXPECT_NEAR(hw.DramSeconds(1'000'000), 2.0 * hw.DramSeconds(500'000),
                1e-15);
}

TEST(Hardware, VectorThroughputScalesWithCores)
{
    HardwareConfig hw = EdgeAccelerator();
    double per_core = hw.VectorOpsPerSecond() / hw.cores;
    EXPECT_DOUBLE_EQ(per_core,
                     hw.vector_lanes_per_core * hw.freq_ghz * 1e9);
}

TEST(Hardware, EnergyDefaultsOrdered)
{
    // DRAM access must dominate GBUF, which dominates L0 — the memory
    // hierarchy energy ordering the whole optimization relies on.
    EnergyModel e;
    EXPECT_GT(e.dram_pj_per_byte, e.gbuf_pj_per_byte);
    EXPECT_GT(e.gbuf_pj_per_byte, e.l0_pj_per_byte);
}

}  // namespace
}  // namespace soma
