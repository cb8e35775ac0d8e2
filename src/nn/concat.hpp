#pragma once

/// \file concat.hpp
/// Multi-branch block with channel concatenation (the Inception building
/// block): every branch consumes the same input; outputs are concatenated
/// along C. Backward splits the gradient by channel range, runs each branch
/// backward, and sums the per-branch input gradients.

#include <functional>
#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace ebct::nn {

class ConcatBranches : public Layer {
 public:
  /// Each branch is a layer sequence; an empty branch acts as identity.
  ConcatBranches(std::string name,
                 std::vector<std::vector<std::unique_ptr<Layer>>> branches);

  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::vector<Param*> params() override;
  tensor::Shape output_shape(const tensor::Shape& input) const override;
  void set_store(ActivationStore* store) override;
  std::size_t activation_bytes(const tensor::Shape& input) const override;

  /// Visit the block itself, then every child in every branch.
  void visit(const std::function<void(Layer&)>& fn) override;

  /// IR: one chain per branch from the shared input tensor (an empty
  /// branch passes the input tensor through), joined by a "concat" node —
  /// the edges that expose the branch-head layers as co-consumers of one
  /// produced tensor (the pager's shared-stash groups come from this).
  graph::TensorId build_graph(graph::Graph& g, graph::TensorId input) const override;

  /// Mirrors backward(): branches in reverse forward order, each reversed.
  void backward_schedule(std::vector<const Layer*>& order) const override;

 private:
  tensor::Shape branch_output_shape(std::size_t b, const tensor::Shape& input) const;

  std::vector<std::vector<std::unique_ptr<Layer>>> branches_;
  std::vector<std::size_t> out_channels_;  // per branch, from last forward
  tensor::Shape in_shape_;
};

}  // namespace ebct::nn
