#include "hw/memory_model.h"

#include "hw/banked_dram.h"

namespace soma {

const char *
AnalyticalDramModel::description() const
{
    return "flat-bandwidth channel: seconds = bytes / dram_gbps "
           "(the paper's model; the default)";
}

void
AnalyticalDramModel::FillTransferSeconds(const HardwareConfig &hw,
                                         const DramTransferList &transfers,
                                         std::vector<double> *seconds) const
{
    seconds->resize(transfers.count);
    // Exactly the pre-seam inline loop: same call, same iteration
    // order, so the analytical backend is bit-identical to the legacy
    // math (pinned by tests/test_memory_model.cc).
    for (int j = 0; j < transfers.count; ++j)
        (*seconds)[j] = hw.DramSeconds(transfers.bytes[j]);
}

double
AnalyticalDramModel::ChannelBusySeconds(
    const HardwareConfig &hw, Bytes total_bytes,
    const std::vector<double> &) const
{
    // One division over the summed bytes — NOT the sum of the
    // per-transfer seconds, which would differ in the last ulps.
    return hw.DramSeconds(total_bytes);
}

const MemoryModel &
AnalyticalMemoryModel()
{
    static const AnalyticalDramModel model;
    return model;
}

double
ModelTransferSeconds(const HardwareConfig &hw, Bytes bytes, bool is_load)
{
    if (hw.memory_model == nullptr) return hw.DramSeconds(bytes);
    const unsigned char load_flag = is_load ? 1 : 0;
    DramTransferList one;
    one.bytes = &bytes;
    one.is_load = &load_flag;
    one.count = 1;
    std::vector<double> seconds;
    hw.memory_model->FillTransferSeconds(hw, one, &seconds);
    return seconds[0];
}

MemoryModelRegistry
MemoryModelRegistry::WithBuiltins()
{
    MemoryModelRegistry reg;
    reg.Register(&AnalyticalMemoryModel());
    reg.Register(&BankedMemoryModel());
    return reg;
}

}  // namespace soma
