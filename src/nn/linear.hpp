#pragma once

/// \file linear.hpp
/// Fully-connected layer: out = x * W^T + b over [N, in] inputs.

#include "nn/layer.hpp"

namespace ebct::nn {

class Linear : public Layer {
 public:
  Linear(std::string name, std::size_t in_features, std::size_t out_features,
         tensor::Rng& rng);

  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::string graph_op() const override { return "linear"; }
  tensor::Shape output_shape(const tensor::Shape& input) const override {
    return tensor::Shape{input.n(), out_features_};
  }

  Param& weight() { return weight_; }
  Param& bias_param() { return bias_; }

 private:
  std::size_t in_features_;
  std::size_t out_features_;
  Param weight_;
  Param bias_;
  tensor::Tensor saved_input_;
  StashHandle saved_handle_ = 0;  ///< exact-channel stash when the store pages state
  bool saved_paged_ = false;
};

}  // namespace ebct::nn
