#pragma once

/// \file conv2d.hpp
/// 2-D convolution implemented as im2col + GEMM. Samples are batched into
/// groups whose columns fill at least one GEMM C-tile width, one GEMM per
/// group, so small feature maps still run wide GEMMs.
/// This is the layer whose input activation the paper compresses: forward()
/// stashes the input through the ActivationStore and backward() retrieves
/// the (possibly lossily reconstructed) copy to form the weight gradient —
/// exactly the G = A x L data path analysed in §3.2.

#include "nn/layer.hpp"

namespace ebct::nn {

struct Conv2dSpec {
  std::size_t in_channels = 0;
  std::size_t out_channels = 0;
  std::size_t kernel = 3;    ///< kernel height (and width unless kernel_w set)
  std::size_t stride = 1;
  std::size_t pad = 1;       ///< vertical padding (and horizontal unless pad_w set)
  bool bias = true;
  /// Rectangular kernels (Inception's 1x7 / 7x1 factorisation): 0 means
  /// "same as kernel"; kNoOverride means "same as pad".
  std::size_t kernel_w = 0;
  static constexpr std::size_t kNoOverride = static_cast<std::size_t>(-1);
  std::size_t pad_w = kNoOverride;

  std::size_t kh() const { return kernel; }
  std::size_t kw() const { return kernel_w ? kernel_w : kernel; }
  std::size_t ph() const { return pad; }
  std::size_t pw() const { return pad_w == kNoOverride ? pad : pad_w; }
};

class Conv2d : public Layer {
 public:
  Conv2d(std::string name, Conv2dSpec spec, tensor::Rng& rng);

  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::vector<Param*> params() override;
  bool uses_activation_store() const override { return true; }
  std::string graph_op() const override { return "conv"; }
  tensor::Shape output_shape(const tensor::Shape& input) const override;
  std::size_t activation_bytes(const tensor::Shape& input) const override {
    return input.numel() * sizeof(float);
  }
  bool replayable() const override { return true; }
  tensor::Tensor replay_forward(const tensor::Tensor& input) const override;
  /// 2 * K * out_elements (im2col GEMM), the dominant term of forward.
  double replay_flops(const tensor::Shape& input) const override;

  const Conv2dSpec& spec() const { return spec_; }
  Param& weight() { return weight_; }
  Param& bias_param() { return bias_; }

  /// Mean absolute value of the incoming loss (grad_output) observed in the
  /// most recent backward pass — the paper's per-layer L̄ statistic.
  double last_loss_mean_abs() const { return last_loss_mean_abs_; }
  /// Non-zero fraction of the stashed input in the most recent forward pass
  /// — the paper's sparsity ratio R.
  double last_input_density() const { return last_input_density_; }

 private:
  /// The im2col+GEMM+bias compute of forward(), with no member writes —
  /// shared by forward() and replay_forward() so both produce the same
  /// bytes by construction.
  tensor::Tensor compute(const tensor::Tensor& input) const;

  Conv2dSpec spec_;
  Param weight_;
  Param bias_;
  StashHandle input_handle_ = 0;
  tensor::Shape input_shape_;
  double last_loss_mean_abs_ = 0.0;
  double last_input_density_ = 1.0;
};

}  // namespace ebct::nn
