#include "workload/graph.h"

#include <cstdlib>

#include "common/logging.h"

namespace soma {

LayerId
Graph::AddLayer(Layer layer)
{
    LayerId id = static_cast<LayerId>(layers_.size());
    consumers_.emplace_back();
    const auto &ins = layer.inputs();
    for (int k = 0; k < static_cast<int>(ins.size()); ++k) {
        if (ins[k].producer == kNoLayer) continue;
        if (ins[k].producer < 0 || ins[k].producer >= id) {
            SOMA_ERROR << "layer " << layer.name()
                       << " must be appended after its producers";
            std::abort();
        }
        consumers_[ins[k].producer].push_back(Edge{ins[k].producer, id, k});
    }
    layers_.push_back(std::move(layer));
    return id;
}

const std::vector<Edge> &
Graph::Consumers(LayerId id) const
{
    return consumers_[id];
}

std::vector<Edge>
Graph::AllEdges() const
{
    std::vector<Edge> edges;
    for (LayerId c = 0; c < NumLayers(); ++c) {
        const auto &ins = layers_[c].inputs();
        for (int k = 0; k < static_cast<int>(ins.size()); ++k) {
            if (ins[k].producer != kNoLayer)
                edges.push_back(Edge{ins[k].producer, c, k});
        }
    }
    return edges;
}

bool
Graph::IsValidOrder(const std::vector<LayerId> &order) const
{
    if (static_cast<int>(order.size()) != NumLayers()) return false;
    std::vector<int> position(layers_.size(), -1);
    for (int pos = 0; pos < static_cast<int>(order.size()); ++pos) {
        LayerId id = order[pos];
        if (id < 0 || id >= NumLayers() || position[id] >= 0) return false;
        position[id] = pos;
    }
    for (LayerId c = 0; c < NumLayers(); ++c) {
        for (const InputRef &in : layers_[c].inputs()) {
            if (in.producer != kNoLayer &&
                position[in.producer] > position[c]) {
                return false;
            }
        }
    }
    return true;
}

std::vector<LayerId>
Graph::TopoOrder() const
{
    std::vector<LayerId> order(layers_.size());
    for (LayerId i = 0; i < NumLayers(); ++i) order[i] = i;
    return order;
}

void
Graph::Validate() const
{
    for (LayerId id = 0; id < NumLayers(); ++id) {
        const Layer &l = layers_[id];
        if (l.outChannels() <= 0 || l.outHeight() <= 0 || l.outWidth() <= 0) {
            SOMA_ERROR << "layer " << l.name() << " has empty output shape";
            std::abort();
        }
        for (const InputRef &in : l.inputs()) {
            if (in.producer == kNoLayer) {
                if (in.ext.channels <= 0 || in.ext.height <= 0 ||
                    in.ext.width <= 0) {
                    SOMA_ERROR << "layer " << l.name()
                               << " has an external input with empty shape";
                    std::abort();
                }
            } else if (in.producer >= id) {
                SOMA_ERROR << "layer " << l.name() << " breaks topo order";
                std::abort();
            }
        }
    }
}

Ops
Graph::TotalOps() const
{
    Ops total = 0;
    for (const Layer &l : layers_)
        total += l.OpsForRegion(l.FullRegion(batch_));
    return total;
}

Ops
Graph::TotalMatrixOps() const
{
    Ops total = 0;
    for (const Layer &l : layers_) {
        if (IsMatrixKind(l.kind()))
            total += l.OpsForRegion(l.FullRegion(batch_));
    }
    return total;
}

Bytes
Graph::TotalWeightBytes() const
{
    Bytes total = 0;
    for (const Layer &l : layers_) total += l.weightBytes();
    return total;
}

Bytes
Graph::TotalFmapBytes() const
{
    Bytes total = 0;
    for (const Layer &l : layers_)
        total += l.PerSampleOutputBytes() * batch_;
    return total;
}

}  // namespace soma
