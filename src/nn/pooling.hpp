#pragma once

/// \file pooling.hpp
/// Max and average pooling. MaxPool keeps argmax indices (4 bytes per output
/// element) for the backward scatter; AvgPool is stateless apart from shapes.
/// GlobalAvgPool reduces each channel plane to one value (ResNet head).

#include <cstdint>
#include <vector>

#include "nn/layer.hpp"

namespace ebct::nn {

struct PoolSpec {
  std::size_t kernel = 2;
  std::size_t stride = 2;
  std::size_t pad = 0;
};

class MaxPool : public Layer {
 public:
  MaxPool(std::string name, PoolSpec spec) : Layer(std::move(name)), spec_(spec) {}

  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::string graph_op() const override { return "maxpool"; }
  tensor::Shape output_shape(const tensor::Shape& input) const override;

 private:
  PoolSpec spec_;
  std::vector<std::uint32_t> argmax_;
  // When the store pages layer state, the argmax indices are stashed
  // byte-exact through it (bitcast into float storage — the exact channel
  // never touches the lossy codec, so the bits round-trip).
  StashHandle argmax_handle_ = 0;
  bool argmax_paged_ = false;
  tensor::Shape in_shape_;
};

class AvgPool : public Layer {
 public:
  AvgPool(std::string name, PoolSpec spec) : Layer(std::move(name)), spec_(spec) {}

  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::string graph_op() const override { return "avgpool"; }
  tensor::Shape output_shape(const tensor::Shape& input) const override;

 private:
  PoolSpec spec_;
  tensor::Shape in_shape_;
};

/// Mean over H x W per (n, c): output [N, C, 1, 1].
class GlobalAvgPool : public Layer {
 public:
  explicit GlobalAvgPool(std::string name) : Layer(std::move(name)) {}

  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  tensor::Shape output_shape(const tensor::Shape& input) const override {
    return tensor::Shape::nchw(input.n(), input.c(), 1, 1);
  }

 private:
  tensor::Shape in_shape_;
};

}  // namespace ebct::nn
