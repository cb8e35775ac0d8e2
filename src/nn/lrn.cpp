#include "nn/lrn.hpp"

#include <cmath>

#include "tensor/parallel.hpp"

namespace ebct::nn {

using tensor::Shape;
using tensor::Tensor;

Tensor Lrn::forward(const Tensor& input, bool /*train*/) {
  const Shape& s = input.shape();
  saved_input_ = input.clone();
  scale_ = Tensor(s);
  Tensor out(s);
  const std::size_t C = s.c(), hw = s.h() * s.w();
  const std::size_t half = spec_.size / 2;
  const double a = spec_.alpha / static_cast<double>(spec_.size);
  tensor::parallel_for(s.n() * hw, [&](std::size_t p) {
    const std::size_t n = p / hw, i = p % hw;
    for (std::size_t c = 0; c < C; ++c) {
      const std::size_t lo = c >= half ? c - half : 0;
      const std::size_t hi = std::min(C - 1, c + half);
      double acc = 0.0;
      for (std::size_t cc = lo; cc <= hi; ++cc) {
        const double v = input.data()[(n * C + cc) * hw + i];
        acc += v * v;
      }
      const std::size_t idx = (n * C + c) * hw + i;
      const double sc = spec_.k + a * acc;
      scale_[idx] = static_cast<float>(sc);
      out[idx] = static_cast<float>(input[idx] * std::pow(sc, -spec_.beta));
    }
  });
  // Under a paging store both saved tensors go through the byte-exact
  // channel so the memory budget governs them; stash order (input, then
  // scale) is the reverse of backward's retrieve order, keeping the
  // pager's LIFO prefetch heuristic accurate.
  if (store_ != nullptr && store_->pages_layer_state()) {
    saved_handle_ = store_->stash_exact(name_, std::move(saved_input_));
    scale_handle_ = store_->stash_exact(name_ + ".scale", std::move(scale_));
    saved_paged_ = true;
  } else {
    saved_paged_ = false;
  }
  return out;
}

Tensor Lrn::backward(const Tensor& grad_output) {
  if (saved_paged_) {
    scale_ = store_->retrieve_exact(scale_handle_);
    saved_input_ = store_->retrieve_exact(saved_handle_);
    saved_paged_ = false;
  }
  const Shape& s = saved_input_.shape();
  Tensor grad(s);
  const std::size_t C = s.c(), hw = s.h() * s.w();
  const std::size_t half = spec_.size / 2;
  const double a = spec_.alpha / static_cast<double>(spec_.size);
  // d out_c / d x_j = scale_c^{-beta} * [c==j] -
  //   2*a*beta * x_c * x_j * scale_c^{-beta-1}  (j in window of c)
  tensor::parallel_for(s.n() * hw, [&](std::size_t p) {
    const std::size_t n = p / hw, i = p % hw;
    for (std::size_t j = 0; j < C; ++j) {
      const std::size_t jdx = (n * C + j) * hw + i;
      double acc = grad_output[jdx] * std::pow(static_cast<double>(scale_[jdx]), -spec_.beta);
      const std::size_t lo = j >= half ? j - half : 0;
      const std::size_t hi = std::min(C - 1, j + half);
      for (std::size_t c = lo; c <= hi; ++c) {
        const std::size_t cdx = (n * C + c) * hw + i;
        acc -= 2.0 * a * spec_.beta * saved_input_[cdx] * saved_input_[jdx] *
               std::pow(static_cast<double>(scale_[cdx]), -spec_.beta - 1.0) *
               grad_output[cdx];
      }
      grad[jdx] = static_cast<float>(acc);
    }
  });
  saved_input_ = Tensor();
  scale_ = Tensor();
  return grad;
}

}  // namespace ebct::nn
