#include "nn/linear.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"

namespace ebct::nn {

using tensor::Shape;
using tensor::Tensor;

Linear::Linear(std::string name, std::size_t in_features, std::size_t out_features,
               tensor::Rng& rng)
    : Layer(std::move(name)),
      in_features_(in_features),
      out_features_(out_features),
      weight_(name_ + ".weight", Shape{out_features, in_features}),
      bias_(name_ + ".bias", Shape{out_features}) {
  rng.fill_normal(weight_.value.span(), 0.0f,
                  static_cast<float>(std::sqrt(2.0 / static_cast<double>(in_features))));
  bias_.value.zero();
}

Tensor Linear::forward(const Tensor& input, bool /*train*/) {
  if (input.shape().rank() != 2 || input.shape()[1] != in_features_)
    throw std::invalid_argument(name_ + ": expected [N, " + std::to_string(in_features_) + "]");
  const std::size_t n = input.shape().n();
  Tensor out(Shape{n, out_features_});
  tensor::gemm_bt(input.data(), weight_.value.data(), out.data(), n, in_features_,
                  out_features_);
  tensor::parallel_for(n, out_features_, [&](std::size_t s) {
    float* row = out.data() + s * out_features_;
    for (std::size_t j = 0; j < out_features_; ++j) row[j] += bias_.value[j];
  });
  // The saved input is what the weight gradient needs in backward. Under a
  // paging store it is stashed byte-exact (budget-governed, spillable);
  // otherwise it stays a private member as before.
  if (store_ != nullptr && store_->pages_layer_state()) {
    saved_handle_ = store_->stash_exact(name_, input.clone());
    saved_paged_ = true;
  } else {
    saved_input_ = input.clone();
    saved_paged_ = false;
  }
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  if (saved_paged_) {
    saved_input_ = store_->retrieve_exact(saved_handle_);
    saved_paged_ = false;
  }
  const std::size_t n = saved_input_.shape().n();
  // dW[out, in] += L^T[out, N] * x[N, in]
  tensor::gemm_at(grad_output.data(), saved_input_.data(), weight_.grad.data(),
                  out_features_, n, in_features_, /*accumulate=*/true);
  // Bias grad parallelises over column *ranges*: each j owns its
  // accumulator and sums samples in index order, so the result is
  // byte-identical to the serial loop at any thread count. Within a range
  // the walk stays row-major (s outer) so every grad_output cache line is
  // fetched once, not once per column sharing it.
  const std::size_t col_grain = std::max<std::size_t>(
      1, tensor::kParallelWorkGrain / std::max<std::size_t>(n, 1));
  tensor::sched::parallel_ranges(out_features_, col_grain, [&](std::size_t jb, std::size_t je) {
    for (std::size_t s = 0; s < n; ++s) {
      const float* row = grad_output.data() + s * out_features_;
      for (std::size_t j = jb; j < je; ++j) {
        bias_.grad[j] += row[j];
      }
    }
  });
  // dX[N, in] = L[N, out] * W[out, in]
  Tensor grad_input(saved_input_.shape());
  tensor::gemm(grad_output.data(), weight_.value.data(), grad_input.data(), n,
               out_features_, in_features_);
  saved_input_ = Tensor();
  return grad_input;
}

}  // namespace ebct::nn
