/**
 * @file
 * The workload graph: a DAG of layers plus the batch size, with the
 * dependency queries used by the notation parser and the search stages.
 */
#ifndef SOMA_WORKLOAD_GRAPH_H
#define SOMA_WORKLOAD_GRAPH_H

#include <string>
#include <vector>

#include "common/types.h"
#include "workload/layer.h"

namespace soma {

/** A (producer, consumer, input slot) dependency record. */
struct Edge {
    LayerId producer = kNoLayer;
    LayerId consumer = kNoLayer;
    int input_index = 0;  ///< index into consumer's inputs()
};

/**
 * A DNN workload: layers, dependencies, batch size.
 *
 * Layers are stored in construction order, which must be a valid
 * topological order (builders naturally satisfy this). The scheduling
 * layers' Computing Order is a permutation of [0, NumLayers()).
 */
class Graph {
  public:
    Graph() = default;
    Graph(std::string name, int batch) : name_(std::move(name)),
                                         batch_(batch) {}

    const std::string &name() const { return name_; }
    void setName(std::string n) { name_ = std::move(n); }

    int batch() const { return batch_; }
    void setBatch(int b) { batch_ = b; }

    int NumLayers() const { return static_cast<int>(layers_.size()); }

    /** Append a layer; returns its id. Inputs must reference earlier ids. */
    LayerId AddLayer(Layer layer);

    const Layer &layer(LayerId id) const { return layers_[id]; }
    Layer &layer(LayerId id) { return layers_[id]; }

    /** All consumer edges of @p id, in (consumer, input slot) order.
     *  Built eagerly by AddLayer, so concurrent readers of a finished
     *  graph share no mutable state. */
    const std::vector<Edge> &Consumers(LayerId id) const;

    /** All edges of the graph (producer >= 0 only). */
    std::vector<Edge> AllEdges() const;

    /** True when @p order is a permutation with all deps left-to-right. */
    bool IsValidOrder(const std::vector<LayerId> &order) const;

    /** Construction order, which is topological by construction. */
    std::vector<LayerId> TopoOrder() const;

    /** Sanity checks: acyclicity, shape consistency. Dies on violation. */
    void Validate() const;

    /** Sum of OpsForRegion over full regions of all layers. */
    Ops TotalOps() const;

    /** Matrix-engine ops only (PE-array TOPS utilization denominator). */
    Ops TotalMatrixOps() const;

    Bytes TotalWeightBytes() const;

    /** Sum of all per-sample ofmap bytes times batch. */
    Bytes TotalFmapBytes() const;

  private:
    std::string name_;
    int batch_ = 1;
    std::vector<Layer> layers_;
    std::vector<std::vector<Edge>> consumers_;  ///< indexed by producer
};

}  // namespace soma

#endif  // SOMA_WORKLOAD_GRAPH_H
