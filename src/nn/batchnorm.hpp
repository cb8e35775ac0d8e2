#pragma once

/// \file batchnorm.hpp
/// Spatial batch normalisation over (N, H, W) per channel, with learnable
/// scale/shift and running statistics for evaluation mode.

#include <vector>

#include "nn/layer.hpp"

namespace ebct::nn {

class BatchNorm : public Layer {
 public:
  BatchNorm(std::string name, std::size_t channels, double momentum = 0.9,
            double eps = 1e-5);

  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  std::string graph_op() const override { return "bn"; }
  tensor::Shape output_shape(const tensor::Shape& input) const override { return input; }

  std::span<const float> running_mean() const { return {running_mean_.data(), channels_}; }
  std::span<const float> running_var() const { return {running_var_.data(), channels_}; }

 private:
  /// Train-mode mean and (biased) variance of channel `c` of an [n, C, hw]
  /// batch.
  void batch_stats(const float* x, std::size_t n, std::size_t hw, std::size_t c,
                   double& mean, double& var) const;

  std::size_t channels_;
  double momentum_;
  double eps_;
  Param gamma_;
  Param beta_;
  std::vector<float> running_mean_;
  std::vector<float> running_var_;
  // Saved forward state for backward. By default x_hat lives in this
  // layer's own buffer, allocated once and reused every step; it is not a
  // tracked Tensor, being workspace between a forward and its backward, so
  // it does not distort the activation-memory accounting. Forward and
  // backward may run on different threads (the graph executor): the buffer
  // belongs to the layer, not to a thread. When the installed store pages
  // layer state (a budgeted ActivationPager), x_hat is stashed byte-exact
  // through it instead, so the memory budget governs it too.
  enum class Saved { kNone, kLocal, kPaged };
  std::vector<float> x_hat_;
  StashHandle x_hat_handle_ = 0;
  Saved saved_ = Saved::kNone;
  std::vector<float> inv_std_;
  tensor::Shape in_shape_;
};

}  // namespace ebct::nn
