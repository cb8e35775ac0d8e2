#pragma once

/// \file lrn.hpp
/// Local response normalisation across channels (AlexNet-style):
///   out = x / (k + alpha/size * sum_{c'} x_{c'}^2)^beta
/// over a window of `size` channels centred on c.

#include "nn/layer.hpp"

namespace ebct::nn {

struct LrnSpec {
  std::size_t size = 5;
  double alpha = 1e-4;
  double beta = 0.75;
  double k = 2.0;
};

class Lrn : public Layer {
 public:
  Lrn(std::string name, LrnSpec spec) : Layer(std::move(name)), spec_(spec) {}

  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  tensor::Shape output_shape(const tensor::Shape& input) const override { return input; }

 private:
  LrnSpec spec_;
  tensor::Tensor saved_input_;
  tensor::Tensor scale_;  // k + alpha/size * window sum of squares
  StashHandle saved_handle_ = 0;   ///< exact-channel stashes when the store
  StashHandle scale_handle_ = 0;   ///< pages layer state
  bool saved_paged_ = false;
};

}  // namespace ebct::nn
