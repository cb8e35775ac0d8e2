#include "nn/batchnorm.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/parallel.hpp"

namespace ebct::nn {

using tensor::Shape;
using tensor::Tensor;

BatchNorm::BatchNorm(std::string name, std::size_t channels, double momentum, double eps)
    : Layer(std::move(name)),
      channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(name_ + ".gamma", Shape{channels}),
      beta_(name_ + ".beta", Shape{channels}),
      running_mean_(channels, 0.0f),
      running_var_(channels, 1.0f) {
  gamma_.value.fill(1.0f);
  beta_.value.zero();
  // Scale/shift conventionally exempt from weight decay.
  gamma_.weight_decay_multiplier = 0.0;
  beta_.weight_decay_multiplier = 0.0;
}

namespace {

/// Partial-sum lanes of the per-channel reductions: a fixed count, so the
/// sums are the same at every pool size, and enough independent chains for
/// the compiler to vectorise the loop.
constexpr std::size_t kLanes = 8;

/// Sum in double of `f(j)` over the elements of one channel of an
/// [n, C, hw] batch, j being the element's offset from the channel's first
/// element (rows of hw, `chw` apart). Element i of each row feeds lane
/// i % kLanes; the lanes fold in lane order.
template <typename F>
double channel_sum(std::size_t n, std::size_t chw, std::size_t hw, F f) {
  double lane[kLanes] = {};
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t row = s * chw;
    std::size_t i = 0;
    for (; i + kLanes <= hw; i += kLanes)
      for (std::size_t l = 0; l < kLanes; ++l) lane[l] += f(row + i + l);
    for (std::size_t l = 0; i < hw; ++i, ++l) lane[l] += f(row + i);
  }
  double total = 0.0;
  for (double v : lane) total += v;
  return total;
}

}  // namespace

void BatchNorm::batch_stats(const float* x, std::size_t n, std::size_t hw, std::size_t c,
                            double& mean, double& var) const {
  // Exact two-pass statistics: the mean first, then the centred sum of
  // squares, immune to the cancellation of the sum/sum-of-squares form when
  // |mean| >> stddev. Both sweeps are pure functions of the shape.
  const std::size_t chw = channels_ * hw;
  const double count = static_cast<double>(n * hw);
  const float* xc = x + c * hw;
  mean = channel_sum(n, chw, hw, [xc](std::size_t j) { return double(xc[j]); }) / count;
  const double m = mean;
  var = channel_sum(n, chw, hw, [xc, m](std::size_t j) {
          const double d = xc[j] - m;
          return d * d;
        }) / count;
}

Tensor BatchNorm::forward(const Tensor& input, bool train) {
  if (input.shape().rank() != 4 || input.shape().c() != channels_)
    throw std::invalid_argument(name_ + ": expected NCHW with C=" + std::to_string(channels_));
  in_shape_ = input.shape();
  const std::size_t n = in_shape_.n(), hw = in_shape_.h() * in_shape_.w();
  const std::size_t chw = channels_ * hw;

  Tensor out(in_shape_);
  // When the store pages layer state, x_hat goes through it as a byte-exact
  // tensor (governed by the memory budget, spillable to disk); otherwise it
  // stays in this layer's own buffer, sized once and reused every step.
  const bool paged = store_ != nullptr && store_->pages_layer_state();
  Tensor x_hat_paged_t;
  float* x_hat;
  if (paged) {
    x_hat_paged_t = Tensor(in_shape_);
    x_hat = x_hat_paged_t.data();
  } else {
    x_hat_.resize(in_shape_.numel());
    x_hat = x_hat_.data();
  }
  inv_std_.assign(channels_, 0.0f);

  // Channels are few (well under the elementwise grain) but each sweeps the
  // whole batch — pass the per-channel cost so the loop actually forks.
  tensor::parallel_for(channels_, 4 * n * hw, [&](std::size_t c) {
    double mean, var;
    if (train) {
      batch_stats(input.data(), n, hw, c, mean, var);
      running_mean_[c] = static_cast<float>(momentum_ * running_mean_[c] + (1.0 - momentum_) * mean);
      running_var_[c] = static_cast<float>(momentum_ * running_var_[c] + (1.0 - momentum_) * var);
    } else {
      mean = running_mean_[c];
      var = running_var_[c];
    }
    const double istd = 1.0 / std::sqrt(var + eps_);
    inv_std_[c] = static_cast<float>(istd);
    const float g = gamma_.value[c], b = beta_.value[c];
    for (std::size_t s = 0; s < n; ++s) {
      const float* src = input.data() + s * chw + c * hw;
      float* xh = x_hat + s * chw + c * hw;
      float* dst = out.data() + s * chw + c * hw;
      for (std::size_t i = 0; i < hw; ++i) {
        const float xhat = static_cast<float>((src[i] - mean) * istd);
        xh[i] = xhat;
        dst[i] = g * xhat + b;
      }
    }
  });
  if (paged) {
    x_hat_handle_ = store_->stash_exact(name_, std::move(x_hat_paged_t));
    saved_ = Saved::kPaged;
  } else {
    saved_ = Saved::kLocal;
  }
  return out;
}

Tensor BatchNorm::replay_forward(const Tensor& input) const {
  if (input.shape().rank() != 4 || input.shape().c() != channels_)
    throw std::invalid_argument(name_ + ": expected NCHW with C=" + std::to_string(channels_));
  const tensor::Shape& s = input.shape();
  const std::size_t n = s.n(), hw = s.h() * s.w();
  const std::size_t chw = channels_ * hw;

  Tensor out(s);
  // forward(train=true) computing only `out`: the same batch_stats, then the
  // same per-element xhat — but no running-stat update, no x_hat stash, no
  // inv_std_ write. The normalisation below must stay the float op sequence
  // of forward(), or the recompute tier's byte-identity contract breaks.
  tensor::parallel_for(channels_, 4 * n * hw, [&](std::size_t c) {
    double mean, var;
    batch_stats(input.data(), n, hw, c, mean, var);
    const double istd = 1.0 / std::sqrt(var + eps_);
    const float g = gamma_.value[c], b = beta_.value[c];
    for (std::size_t smp = 0; smp < n; ++smp) {
      const float* src = input.data() + smp * chw + c * hw;
      float* dst = out.data() + smp * chw + c * hw;
      for (std::size_t i = 0; i < hw; ++i) {
        const float xhat = static_cast<float>((src[i] - mean) * istd);
        dst[i] = g * xhat + b;
      }
    }
  });
  return out;
}

Tensor BatchNorm::backward(const Tensor& grad_output) {
  if (saved_ == Saved::kNone) throw std::logic_error(name_ + ": backward without forward");
  const std::size_t n = in_shape_.n(), hw = in_shape_.h() * in_shape_.w();
  const std::size_t chw = channels_ * hw;
  const double count = static_cast<double>(n * hw);
  Tensor x_hat_t;
  const float* x_hat;
  if (saved_ == Saved::kPaged) {
    x_hat_t = store_->retrieve_exact(x_hat_handle_);
    x_hat = x_hat_t.data();
  } else {
    x_hat = x_hat_.data();
  }

  Tensor grad_input(in_shape_);
  tensor::parallel_for(channels_, 6 * n * hw, [&](std::size_t c) {
    // dL/dgamma and dL/dbeta, which are also the two reduction terms of dL/dx.
    const float* goc = grad_output.data() + c * hw;
    const float* xhc = x_hat + c * hw;
    const double dg = channel_sum(
        n, chw, hw, [goc, xhc](std::size_t j) { return double(goc[j]) * xhc[j]; });
    const double db = channel_sum(n, chw, hw, [goc](std::size_t j) { return double(goc[j]); });
    gamma_.grad[c] += static_cast<float>(dg);
    beta_.grad[c] += static_cast<float>(db);
    const double g = gamma_.value[c];
    const double istd = inv_std_[c];
    // dL/dx = (g*istd/count) * (count*go - db - xh*dg)
    const double k = g * istd / count;
    for (std::size_t s = 0; s < n; ++s) {
      const float* go = grad_output.data() + s * chw + c * hw;
      const float* xh = x_hat + s * chw + c * hw;
      float* gi = grad_input.data() + s * chw + c * hw;
      for (std::size_t i = 0; i < hw; ++i) {
        gi[i] = static_cast<float>(k * (count * go[i] - db - xh[i] * dg));
      }
    }
  });
  saved_ = Saved::kNone;
  return grad_input;
}

}  // namespace ebct::nn
