#include "nn/pooling.hpp"

#include <cstring>
#include <limits>

#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"

namespace ebct::nn {

using tensor::Shape;
using tensor::Tensor;

Shape MaxPool::output_shape(const Shape& input) const {
  return Shape::nchw(input.n(), input.c(),
                     tensor::conv_out_dim(input.h(), spec_.kernel, spec_.stride, spec_.pad),
                     tensor::conv_out_dim(input.w(), spec_.kernel, spec_.stride, spec_.pad));
}

Tensor MaxPool::forward(const Tensor& input, bool /*train*/) {
  in_shape_ = input.shape();
  const Shape os = output_shape(in_shape_);
  Tensor out(os);
  argmax_.assign(out.numel(), 0);
  const std::size_t planes = os.n() * os.c();
  tensor::parallel_for(planes, [&](std::size_t p) {
    const std::size_t n = p / os.c();
    const std::size_t c = p % os.c();
    for (std::size_t oy = 0; oy < os.h(); ++oy) {
      for (std::size_t ox = 0; ox < os.w(); ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        std::uint32_t best_idx = 0;
        for (std::size_t ky = 0; ky < spec_.kernel; ++ky) {
          const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy * spec_.stride + ky) -
                                    static_cast<std::ptrdiff_t>(spec_.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in_shape_.h())) continue;
          for (std::size_t kx = 0; kx < spec_.kernel; ++kx) {
            const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox * spec_.stride + kx) -
                                      static_cast<std::ptrdiff_t>(spec_.pad);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(in_shape_.w())) continue;
            const std::size_t idx = in_shape_.offset(n, c, static_cast<std::size_t>(iy),
                                                     static_cast<std::size_t>(ix));
            if (input[idx] > best) {
              best = input[idx];
              best_idx = static_cast<std::uint32_t>(idx);
            }
          }
        }
        const std::size_t oidx = os.offset(n, c, oy, ox);
        out[oidx] = best;
        argmax_[oidx] = best_idx;
      }
    }
  });
  if (store_ != nullptr && store_->pages_layer_state()) {
    // Bitcast the index array into float storage: stash_exact preserves
    // bytes, so the uint32 values survive paging (and disk spill) intact.
    Tensor idx(tensor::Shape{argmax_.size()});
    std::memcpy(idx.data(), argmax_.data(), argmax_.size() * sizeof(std::uint32_t));
    argmax_handle_ = store_->stash_exact(name_, std::move(idx));
    argmax_paged_ = true;
    argmax_.clear();
    argmax_.shrink_to_fit();
  } else {
    argmax_paged_ = false;
  }
  return out;
}

Tensor MaxPool::backward(const Tensor& grad_output) {
  if (argmax_paged_) {
    Tensor idx = store_->retrieve_exact(argmax_handle_);
    argmax_.resize(idx.numel());
    std::memcpy(argmax_.data(), idx.data(), idx.numel() * sizeof(std::uint32_t));
    argmax_paged_ = false;
  }
  Tensor grad(in_shape_, 0.0f);
  // Pooling windows can overlap when stride < kernel; serial scatter-add.
  for (std::size_t i = 0; i < grad_output.numel(); ++i) {
    grad[argmax_[i]] += grad_output[i];
  }
  return grad;
}

Shape AvgPool::output_shape(const Shape& input) const {
  return Shape::nchw(input.n(), input.c(),
                     tensor::conv_out_dim(input.h(), spec_.kernel, spec_.stride, spec_.pad),
                     tensor::conv_out_dim(input.w(), spec_.kernel, spec_.stride, spec_.pad));
}

Tensor AvgPool::forward(const Tensor& input, bool /*train*/) {
  in_shape_ = input.shape();
  const Shape os = output_shape(in_shape_);
  Tensor out(os);
  const float inv = 1.0f / static_cast<float>(spec_.kernel * spec_.kernel);
  const std::size_t planes = os.n() * os.c();
  tensor::parallel_for(planes, [&](std::size_t p) {
    const std::size_t n = p / os.c();
    const std::size_t c = p % os.c();
    for (std::size_t oy = 0; oy < os.h(); ++oy) {
      for (std::size_t ox = 0; ox < os.w(); ++ox) {
        float acc = 0.0f;
        for (std::size_t ky = 0; ky < spec_.kernel; ++ky) {
          const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy * spec_.stride + ky) -
                                    static_cast<std::ptrdiff_t>(spec_.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in_shape_.h())) continue;
          for (std::size_t kx = 0; kx < spec_.kernel; ++kx) {
            const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox * spec_.stride + kx) -
                                      static_cast<std::ptrdiff_t>(spec_.pad);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(in_shape_.w())) continue;
            acc += input.at(n, c, static_cast<std::size_t>(iy), static_cast<std::size_t>(ix));
          }
        }
        out.at(n, c, oy, ox) = acc * inv;
      }
    }
  });
  return out;
}

Tensor AvgPool::backward(const Tensor& grad_output) {
  Tensor grad(in_shape_, 0.0f);
  const Shape os = grad_output.shape();
  const float inv = 1.0f / static_cast<float>(spec_.kernel * spec_.kernel);
  for (std::size_t n = 0; n < os.n(); ++n) {
    for (std::size_t c = 0; c < os.c(); ++c) {
      for (std::size_t oy = 0; oy < os.h(); ++oy) {
        for (std::size_t ox = 0; ox < os.w(); ++ox) {
          const float g = grad_output.at(n, c, oy, ox) * inv;
          for (std::size_t ky = 0; ky < spec_.kernel; ++ky) {
            const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy * spec_.stride + ky) -
                                      static_cast<std::ptrdiff_t>(spec_.pad);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in_shape_.h())) continue;
            for (std::size_t kx = 0; kx < spec_.kernel; ++kx) {
              const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox * spec_.stride + kx) -
                                        static_cast<std::ptrdiff_t>(spec_.pad);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(in_shape_.w())) continue;
              grad.at(n, c, static_cast<std::size_t>(iy), static_cast<std::size_t>(ix)) += g;
            }
          }
        }
      }
    }
  }
  return grad;
}

Tensor GlobalAvgPool::forward(const Tensor& input, bool /*train*/) {
  in_shape_ = input.shape();
  Tensor out(output_shape(in_shape_));
  const std::size_t hw = in_shape_.h() * in_shape_.w();
  const std::size_t planes = in_shape_.n() * in_shape_.c();
  tensor::parallel_for(planes, [&](std::size_t p) {
    const float* src = input.data() + p * hw;
    double acc = 0.0;
    for (std::size_t i = 0; i < hw; ++i) acc += src[i];
    out[p] = static_cast<float>(acc / static_cast<double>(hw));
  });
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  Tensor grad(in_shape_);
  const std::size_t hw = in_shape_.h() * in_shape_.w();
  const float inv = 1.0f / static_cast<float>(hw);
  const std::size_t planes = in_shape_.n() * in_shape_.c();
  tensor::parallel_for(planes, [&](std::size_t p) {
    const float g = grad_output[p] * inv;
    float* dst = grad.data() + p * hw;
    for (std::size_t i = 0; i < hw; ++i) dst[i] = g;
  });
  return grad;
}

}  // namespace ebct::nn
