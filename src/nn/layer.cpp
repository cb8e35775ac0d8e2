#include "nn/layer.hpp"

#include "graph/graph.hpp"

namespace ebct::nn {

graph::TensorId Layer::build_graph(graph::Graph& g, graph::TensorId input) const {
  return g.add_layer_node(*this, graph_op(), {input});
}

}  // namespace ebct::nn
