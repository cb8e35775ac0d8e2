#pragma once

/// \file layer.hpp
/// Base layer interface of the training framework. Layers are stateful:
/// forward() may stash activations (through the ActivationStore) and
/// backward() consumes them in LIFO order, mirroring how Caffe keeps
/// per-layer bottom data alive between the passes.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/activation_store.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace ebct::graph {
class Graph;
using TensorId = std::uint32_t;
}  // namespace ebct::graph

namespace ebct::nn {

/// A learnable parameter with its gradient and momentum buffers.
struct Param {
  std::string name;
  tensor::Tensor value;
  tensor::Tensor grad;
  tensor::Tensor momentum;
  double weight_decay_multiplier = 1.0;

  explicit Param(std::string n, tensor::Shape shape)
      : name(std::move(n)), value(shape), grad(shape, 0.0f), momentum(shape, 0.0f) {}
};

class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  const std::string& name() const { return name_; }

  /// Forward pass. `train` enables dropout masks / batch statistics.
  virtual tensor::Tensor forward(const tensor::Tensor& input, bool train) = 0;

  /// Backward pass: gradient w.r.t. output -> gradient w.r.t. input.
  /// Accumulates parameter gradients into Param::grad.
  virtual tensor::Tensor backward(const tensor::Tensor& grad_output) = 0;

  virtual std::vector<Param*> params() { return {}; }

  /// Layers whose stashed input goes through the compressible activation
  /// store (the paper compresses convolutional layers only).
  virtual bool uses_activation_store() const { return false; }

  /// Output shape for a given input shape (shape inference, used by the
  /// memory planner's dry-run accounting).
  virtual tensor::Shape output_shape(const tensor::Shape& input) const = 0;

  /// Install the activation store used for stash/retrieve. Composite layers
  /// propagate this to their children.
  virtual void set_store(ActivationStore* store) { store_ = store; }

  /// Number of stashed-activation bytes this layer would hold for the given
  /// input shape (dry-run accounting; raw float bytes before compression).
  virtual std::size_t activation_bytes(const tensor::Shape& input) const {
    (void)input;
    return 0;
  }

  /// Apply `fn` to this layer, then (for containers) to every child.
  /// Every layer in the tree is visited exactly once — containers included,
  /// unlike the old dynamic_cast recursion that silently skipped them.
  virtual void visit(const std::function<void(Layer&)>& fn) { fn(*this); }

  /// Short op tag for the graph IR ("conv", "relu", ...); the default is a
  /// generic tag.
  virtual std::string graph_op() const { return "op"; }

  /// Append this layer's node(s) to the graph IR, consuming tensor
  /// `input`; returns the produced tensor. The default emits one node with
  /// shape inferred through output_shape(); containers override to expose
  /// their internal edges (graph/graph.hpp). Implemented in layer.cpp.
  virtual graph::TensorId build_graph(graph::Graph& g, graph::TensorId input) const;

  /// Append the layers of this subtree in *actual backward execution
  /// order* (the order backward() consumes stashes). Leaves append
  /// themselves; containers override to mirror their backward() bodies.
  virtual void backward_schedule(std::vector<const Layer*>& order) const {
    order.push_back(this);
  }

 protected:
  ActivationStore* store_ = nullptr;
  std::string name_;
};

}  // namespace ebct::nn
