#pragma once

/// \file test_util.hpp
/// Shared helpers for the test suite: numerical gradient checking (central
/// differences) for layers, random tensor factories and a scoped pool size.

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/rng.hpp"
#include "tensor/sched.hpp"
#include "tensor/tensor.hpp"

namespace ebct::testutil {

/// Scalar test loss: L = sum_i w_i * y_i with fixed random weights, so
/// dL/dy_i = w_i exactly.
struct WeightedSumLoss {
  std::vector<float> w;

  explicit WeightedSumLoss(std::size_t n, std::uint64_t seed = 5) {
    tensor::Rng rng(seed);
    w.resize(n);
    rng.fill_uniform({w.data(), n}, -1.0f, 1.0f);
  }

  double value(const tensor::Tensor& y) const {
    double acc = 0.0;
    for (std::size_t i = 0; i < y.numel(); ++i) acc += static_cast<double>(w[i]) * y[i];
    return acc;
  }

  tensor::Tensor grad(const tensor::Shape& shape) const {
    tensor::Tensor g(shape);
    for (std::size_t i = 0; i < g.numel(); ++i) g[i] = w[i];
    return g;
  }
};

/// Compare the analytic input gradient of `layer` against central
/// differences. Returns the max relative error over checked elements.
/// `make_input` regenerates the same input tensor each call (the layer may
/// consume it). The layer must be freshly usable for repeated forwards.
///
/// Piecewise-linear layers (ReLU, MaxPool and compositions) have kinks where
/// the finite difference is meaningless; each probe therefore uses two step
/// sizes and is skipped when the two numeric estimates disagree (a kink was
/// crossed). Analytic gradients are still validated at every smooth probe.
inline double check_input_gradient(nn::Layer& layer, const std::function<tensor::Tensor()>& make_input,
                                   double eps = 1e-3, std::size_t max_checks = 64) {
  tensor::Tensor x = make_input();
  const tensor::Shape out_shape = layer.output_shape(x.shape());
  WeightedSumLoss loss(out_shape.numel());

  tensor::Tensor y = layer.forward(x, /*train=*/true);
  tensor::Tensor analytic = layer.backward(loss.grad(y.shape()));

  auto numeric_at = [&](std::size_t i, double step) {
    tensor::Tensor xp = make_input();
    xp[i] += static_cast<float>(step);
    const double lp = loss.value(layer.forward(xp, true));
    // Drain the stash so stores don't accumulate.
    (void)layer.backward(loss.grad(out_shape));

    tensor::Tensor xm = make_input();
    xm[i] -= static_cast<float>(step);
    const double lm = loss.value(layer.forward(xm, true));
    (void)layer.backward(loss.grad(out_shape));
    return (lp - lm) / (2.0 * step);
  };

  double max_rel = 0.0;
  const std::size_t n = x.numel();
  const std::size_t stride = n <= max_checks ? 1 : n / max_checks;
  for (std::size_t i = 0; i < n; i += stride) {
    const double numeric = numeric_at(i, eps);
    const double numeric_half = numeric_at(i, eps * 0.5);
    const double scale = std::max({std::fabs(numeric), std::fabs(numeric_half), 1e-4});
    if (std::fabs(numeric - numeric_half) > 0.05 * scale) continue;  // kink
    const double a = analytic[i];
    const double denom = std::max({std::fabs(numeric), std::fabs(a), 1e-4});
    max_rel = std::max(max_rel, std::fabs(numeric - a) / denom);
  }
  return max_rel;
}

/// Numerically check a parameter gradient of `layer` (param must be exposed
/// via params()). Gradients must be zeroed by the caller between uses.
inline double check_param_gradient(nn::Layer& layer, nn::Param& param,
                                   const std::function<tensor::Tensor()>& make_input,
                                   double eps = 1e-3, std::size_t max_checks = 48) {
  const tensor::Shape out_shape = layer.output_shape(make_input().shape());
  WeightedSumLoss loss(out_shape.numel());

  param.grad.zero();
  tensor::Tensor y = layer.forward(make_input(), true);
  (void)layer.backward(loss.grad(y.shape()));
  std::vector<float> analytic(param.grad.data(), param.grad.data() + param.grad.numel());

  double max_rel = 0.0;
  const std::size_t n = param.value.numel();
  const std::size_t stride = n <= max_checks ? 1 : n / max_checks;
  for (std::size_t i = 0; i < n; i += stride) {
    const float saved = param.value[i];
    param.value[i] = saved + static_cast<float>(eps);
    const double lp = loss.value(layer.forward(make_input(), true));
    (void)layer.backward(loss.grad(out_shape));
    param.value[i] = saved - static_cast<float>(eps);
    const double lm = loss.value(layer.forward(make_input(), true));
    (void)layer.backward(loss.grad(out_shape));
    param.value[i] = saved;
    const double numeric = (lp - lm) / (2.0 * eps);
    const double a = analytic[i];
    const double denom = std::max({std::fabs(numeric), std::fabs(a), 1e-4});
    max_rel = std::max(max_rel, std::fabs(numeric - a) / denom);
  }
  return max_rel;
}

inline tensor::Tensor random_tensor(tensor::Shape shape, std::uint64_t seed,
                                    float lo = -1.0f, float hi = 1.0f) {
  tensor::Tensor t(shape);
  tensor::Rng rng(seed);
  rng.fill_uniform(t.span(), lo, hi);
  return t;
}

inline tensor::Tensor relu_like_tensor(tensor::Shape shape, std::uint64_t seed,
                                       double sparsity = 0.5, float scale = 1.0f) {
  tensor::Tensor t(shape);
  tensor::Rng rng(seed);
  rng.fill_relu_like(t.span(), sparsity, scale);
  return t;
}

/// Resizes the shared pool for one scope, then restores the previous size.
/// A pool of 1 is the serial reference every parallel path must match.
class ScopedPoolSize {
 public:
  explicit ScopedPoolSize(int n) { tensor::sched::set_num_threads(n); }
  ~ScopedPoolSize() { tensor::sched::set_num_threads(prev_); }
  ScopedPoolSize(const ScopedPoolSize&) = delete;
  ScopedPoolSize& operator=(const ScopedPoolSize&) = delete;

 private:
  const int prev_ = tensor::sched::num_threads();
};

}  // namespace ebct::testutil
