#pragma once

/// \file simple_layers.hpp
/// Lightweight layers: ReLU (bitmask backward), Flatten, Dropout.
/// None of these route through the ActivationStore — the paper compresses
/// convolutional inputs only; these layers keep compact private state.

#include <cstdint>
#include <vector>

#include "nn/layer.hpp"

namespace ebct::nn {

/// Rectified linear unit. Backward needs only the sign of the forward
/// output, kept as a 1 bit/element mask (64x smaller than the activation).
class ReLU : public Layer {
 public:
  explicit ReLU(std::string name) : Layer(std::move(name)) {}

  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::string graph_op() const override { return "relu"; }
  tensor::Shape output_shape(const tensor::Shape& input) const override { return input; }

 private:
  std::vector<std::uint64_t> mask_;
  tensor::Shape shape_;
};

/// Reshape [N, C, H, W] -> [N, C*H*W]; backward restores the shape.
class Flatten : public Layer {
 public:
  explicit Flatten(std::string name) : Layer(std::move(name)) {}

  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  tensor::Shape output_shape(const tensor::Shape& input) const override {
    return tensor::Shape{input.n(), input.numel() / input.n()};
  }

 private:
  tensor::Shape shape_;
};

/// Inverted dropout: scales kept units by 1/(1-p) at train time so eval
/// needs no rescaling. Mask stored as one bit per element.
class Dropout : public Layer {
 public:
  Dropout(std::string name, double p, std::uint64_t seed)
      : Layer(std::move(name)), p_(p), rng_(seed) {}

  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  tensor::Shape output_shape(const tensor::Shape& input) const override { return input; }

  double rate() const { return p_; }

 private:
  double p_;
  tensor::Rng rng_;
  std::vector<std::uint64_t> mask_;
  bool train_mode_ = false;
};

}  // namespace ebct::nn
