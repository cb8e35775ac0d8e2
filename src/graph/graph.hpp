#pragma once

/// \file graph.hpp
/// Lightweight op-graph IR over the nn layer tree (modeled on the willow
/// op/tensor design): nodes with explicit producer/consumer tensor edges,
/// node ids in forward (topological) order, and shape inference carried on
/// every edge.
///
/// The IR is *descriptive*, not executable — forward/backward still run
/// through nn::Network. What the graph adds is the structural knowledge the
/// flat layer vector lacks:
///  - which produced tensor each layer consumes (edges replace the ad-hoc
///    dynamic_cast recursion the containers used to need),
///  - when each stashed activation is truly dead (liveness(), fed to the
///    ActivationPager as its eviction key),
///  - the node schedule and edges the graph executor (graph/executor.hpp)
///    dispatches by.
///
/// Construction: Graph::from_network() asks every layer to append its
/// node(s) via the virtual Layer::build_graph hook; containers contribute
/// their internal structure (a ResidualBlock emits its two paths plus an
/// explicit "add" join, a ConcatBranches emits per-branch chains into a
/// "concat" join). The backward execution order is captured from the
/// equally virtual Layer::backward_schedule, so liveness ranks mirror what
/// backward() actually does, not an idealised reverse topological order.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/liveness.hpp"
#include "nn/layer.hpp"
#include "tensor/shape.hpp"

namespace ebct::nn {
class Network;
}

namespace ebct::graph {

using TensorId = std::uint32_t;
using NodeId = std::uint32_t;

inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

/// One edge value: a tensor produced once and consumed by zero or more
/// nodes. The graph input has no producer.
struct TensorInfo {
  std::string name;
  tensor::Shape shape;
  NodeId producer = kNoNode;
  std::vector<NodeId> consumers;
};

/// One operation. `layer` points back into the owning network for nodes
/// that mirror a real layer; join nodes synthesised by containers (the
/// residual "add") carry none.
struct Node {
  std::string name;
  std::string op;                     ///< "conv", "relu", "add", "concat", ...
  const nn::Layer* layer = nullptr;   ///< null for synthetic join nodes
  std::vector<TensorId> inputs;
  std::vector<TensorId> outputs;
  bool stashes_input = false;         ///< routes its input through the lossy store
  std::int64_t backward_pos = -1;     ///< position in backward execution order
};

class Graph {
 public:
  /// Register the graph input tensor. Exactly one per graph, first call.
  TensorId add_input(std::string name, const tensor::Shape& shape);

  /// Append a node producing one tensor of explicit shape.
  TensorId add_node(std::string name, std::string op, const nn::Layer* layer,
                    std::vector<TensorId> inputs, const tensor::Shape& out_shape);

  /// Builder used by Layer::build_graph: one node mirroring `layer`, output
  /// shape inferred from the layer's shape function on the first input.
  TensorId add_layer_node(const nn::Layer& layer, std::string op,
                          std::vector<TensorId> inputs);

  void set_output(TensorId t);
  TensorId output() const { return output_; }

  /// Build the IR of `net` at `input_shape` and capture the backward
  /// execution order into the nodes' backward_pos.
  static Graph from_network(const nn::Network& net, const tensor::Shape& input_shape);

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<TensorInfo>& tensors() const { return tensors_; }
  const Node& node(NodeId id) const { return nodes_.at(id); }
  const TensorInfo& tensor(TensorId id) const { return tensors_.at(id); }
  std::size_t num_nodes() const { return nodes_.size(); }

  /// The node mirroring layer name `name`, or null.
  const Node* find_node(const std::string& name) const;

  /// Exact per-activation liveness for the pager: backward ranks from the
  /// captured schedule plus shared-producer groups from the edges.
  Liveness liveness() const;

 private:
  std::vector<Node> nodes_;
  std::vector<TensorInfo> tensors_;
  TensorId output_ = 0;
  bool has_input_ = false;
};

}  // namespace ebct::graph
