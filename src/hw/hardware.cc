#include "hw/hardware.h"

namespace soma {

HardwareConfig
EdgeAccelerator()
{
    HardwareConfig hw;
    hw.name = "edge";
    hw.cores = 8;
    hw.pe_rows_per_core = 32;
    hw.pe_cols_per_core = 32;
    hw.freq_ghz = 1.0;                       // 16 TOPS INT8
    hw.gbuf_bytes = 8LL * 1024 * 1024;       // 8 MB
    hw.dram_gbps = 16.0;                     // 16 GB/s
    return hw;
}

HardwareConfig
CloudAccelerator()
{
    HardwareConfig hw;
    hw.name = "cloud";
    hw.cores = 16;
    hw.pe_rows_per_core = 64;
    hw.pe_cols_per_core = 64;
    hw.freq_ghz = 1.0;                       // 131 TOPS INT8 (~128)
    hw.vector_lanes_per_core = 128;
    hw.gbuf_bytes = 32LL * 1024 * 1024;      // 32 MB
    hw.dram_gbps = 128.0;                    // 128 GB/s
    hw.l0_weight_bytes = 128 * 1024;
    hw.l0_act_bytes = 64 * 1024;
    hw.l0_out_bytes = 64 * 1024;
    return hw;
}

}  // namespace soma
