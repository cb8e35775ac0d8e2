#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "tensor/alloc.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"

namespace ebct::nn {

using tensor::Shape;
using tensor::Tensor;

namespace {
/// Cap on the weight-gradient partial buffers. Bounds their memory (parts x
/// weight size) while staying thread-count independent so gradients are
/// byte-identical at any parallelism level.
constexpr std::size_t kGradParts = 16;

inline std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Columns a sample group's GEMMs aim for. Where filling a whole C-tile
/// width (kNc) made the 4x4 and 2x2 stages one serial group, these split a
/// batch into groups the pool runs side by side, and each call packs W
/// once for all of them. Measured at 32, 64 and 96 as the conv time of a
/// train_raw step (ResNet-50, 16 px, width 0.25, batch 16, pool 4 on a
/// 4-vCPU AVX-512 VM; medians of 6 interleaved runs of 150 steps):
///  - Forward: 32 is fastest (10.3 ms a step; 64: 11.7 ms, 96: 13.0 ms).
///    Its bytes do not depend on the grouping.
///  - Backward: 64 (19.7 ms; 32: 20.2 ms, 96: 20.3 ms). Each group adds one
///    pass over its part's dW partial, and the groups set the dW partition.
constexpr std::size_t kForwardGroupCols = 32;
constexpr std::size_t kBackwardGroupCols = 64;

/// Samples per batched GEMM: the fewest whose G*ohow columns reach `cols`,
/// spread evenly over the groups the batch allows (the last group may be
/// short). A pure function of the shape. At ohow >= cols it is 1, so large
/// images keep per-sample column buffers.
std::size_t group_size(std::size_t n, std::size_t ohow, std::size_t cols) {
  const std::size_t fill = ceil_div(cols, std::max<std::size_t>(ohow, 1));
  const std::size_t groups = std::max<std::size_t>(1, n / fill);
  return std::max<std::size_t>(1, ceil_div(n, groups));
}
}  // namespace

Conv2d::Conv2d(std::string name, Conv2dSpec spec, tensor::Rng& rng)
    : Layer(std::move(name)),
      spec_(spec),
      weight_(name_ + ".weight",
              Shape{spec.out_channels, spec.in_channels, spec.kh(), spec.kw()}),
      bias_(name_ + ".bias", Shape{spec.out_channels}) {
  // He-normal initialisation, the standard for ReLU networks.
  const double fan_in =
      static_cast<double>(spec.in_channels) * spec.kh() * spec.kw();
  rng.fill_normal(weight_.value.span(), 0.0f,
                  static_cast<float>(std::sqrt(2.0 / fan_in)));
  bias_.value.zero();
}

Shape Conv2d::output_shape(const Shape& input) const {
  const std::size_t oh = tensor::conv_out_dim(input.h(), spec_.kh(), spec_.stride, spec_.ph());
  const std::size_t ow = tensor::conv_out_dim(input.w(), spec_.kw(), spec_.stride, spec_.pw());
  return Shape::nchw(input.n(), spec_.out_channels, oh, ow);
}

std::vector<Param*> Conv2d::params() {
  if (spec_.bias) return {&weight_, &bias_};
  return {&weight_};
}

bool Conv2d::pointwise() const {
  return spec_.kh() == 1 && spec_.kw() == 1 && spec_.stride == 1 && spec_.ph() == 0 &&
         spec_.pw() == 0;
}

Tensor Conv2d::compute(const Tensor& input) const {
  if (input.shape().c() != spec_.in_channels)
    throw std::invalid_argument(name_ + ": channel mismatch");
  const Shape out_shape = output_shape(input.shape());
  const std::size_t n = input.shape().n();
  const std::size_t cout = spec_.out_channels;
  const std::size_t k = spec_.in_channels * spec_.kh() * spec_.kw();
  const std::size_t ohow = out_shape.h() * out_shape.w();
  const std::size_t in_img = input.shape().c() * input.shape().h() * input.shape().w();
  const std::size_t out_img = cout * ohow;
  const std::size_t g = group_size(n, ohow, kForwardGroupCols);
  // A pointwise conv's sample is already its [k, ohow] column matrix.
  const bool in_place = g == 1 && pointwise();

  Tensor out(out_shape);
  // One GEMM per group of g samples: their columns sit side by side in one
  // [k, g*ohow] matrix. Each output element keeps the k order of the
  // per-sample GEMM, so the bytes match a per-sample loop exactly. W is
  // packed once here and shared by every group's GEMM. Groups run as pool
  // tasks next to their GEMMs' tile tasks; the column and output buffers
  // come from the thread-local scratch arena and are reused across calls.
  const tensor::PackedA wpack(weight_.value.data(), cout, k);
  tensor::parallel_for_tasks(ceil_div(n, g), [&](std::size_t grp) {
    const std::size_t s0 = grp * g, gs = std::min(g, n - s0), w = gs * ohow;
    tensor::ScratchBuffer cols(in_place ? 1 : k * w);
    tensor::ScratchBuffer ybuf(gs > 1 ? cout * w : 1);
    // Resolve the arena pointers before forking (see ScratchBuffer).
    float* colbuf = cols.data();
    float* y = gs > 1 ? ybuf.data() : out.data() + s0 * out_img;
    const float* colp = input.data() + s0 * in_img;
    if (!in_place) {
      tensor::parallel_for(gs, k * ohow, [&](std::size_t i) {
        tensor::im2col(input.data() + (s0 + i) * in_img, spec_.in_channels, input.shape().h(),
                       input.shape().w(), spec_.kh(), spec_.kw(), spec_.stride, spec_.ph(),
                       colbuf + i * ohow, spec_.pw(), w);
      });
      colp = colbuf;
    }
    tensor::gemm_packed(wpack, colp, y, w);
    // Scatter [cout, gs*ohow] back to NCHW, adding the bias on the way.
    tensor::parallel_for(gs, cout * ohow, [&](std::size_t i) {
      for (std::size_t oc = 0; oc < cout; ++oc) {
        float* dst = out.data() + (s0 + i) * out_img + oc * ohow;
        const float* src = y + oc * w + i * ohow;
        if (spec_.bias) {
          const float b = bias_.value[oc];
          for (std::size_t j = 0; j < ohow; ++j) dst[j] = src[j] + b;
        } else if (dst != src) {
          std::memcpy(dst, src, ohow * sizeof(float));
        }
      }
    });
  });
  return out;
}

Tensor Conv2d::forward(const Tensor& input, bool /*train*/) {
  input_shape_ = input.shape();
  Tensor out = compute(input);

  if (store_ != nullptr) {
    // Stash the *input* activation (paper: G = A x L requires A in backward).
    last_input_density_ = tensor::nonzero_fraction(input.span());
    input_handle_ = store_->stash(name_, input.clone());
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  if (store_ == nullptr) throw std::logic_error(name_ + ": backward without store");
  Tensor input = store_->retrieve(input_handle_);
  input.reshape(input_shape_);

  last_loss_mean_abs_ = tensor::mean_abs(grad_output.span());

  const Shape out_shape = grad_output.shape();
  const std::size_t n = input_shape_.n();
  const std::size_t cout = spec_.out_channels;
  const std::size_t k = spec_.in_channels * spec_.kh() * spec_.kw();
  const std::size_t ohow = out_shape.h() * out_shape.w();
  const std::size_t in_img = input_shape_.c() * input_shape_.h() * input_shape_.w();
  const std::size_t out_img = cout * ohow;

  Tensor grad_input(input_shape_);
  if (n == 0) return grad_input;

  // Sample groups as in the forward, at the backward's width. Weight/bias
  // gradients reduce across the batch, so their partition is a function of
  // the shape alone — never of the thread count — for byte-identical
  // results at any parallelism level: each part accumulates its groups in
  // order, and parts are folded into the grads in part order below. The
  // partial buffers come from the calling thread's scratch arena (acquired
  // here, filled by the tasks through raw pointers), so steady-state
  // training allocates no weight-grad workspace.
  const std::size_t g = group_size(n, ohow, kBackwardGroupCols);
  const std::size_t groups = ceil_div(n, g);
  const std::size_t parts = std::min(groups, kGradParts);
  const std::size_t per_part = ceil_div(groups, parts);
  const std::size_t wnumel = weight_.value.numel();
  tensor::ScratchBuffer wgrad_parts(parts * wnumel);
  tensor::ScratchBuffer bgrad_parts(parts * cout);
  // Resolve the raw pointers *before* the parallel region: .data() walks
  // this thread's arena bookkeeping, which this same thread mutates while
  // helping execute tasks (nested ScratchBuffer acquires) — workers must
  // not read it concurrently. The blocks themselves never move.
  float* wparts = wgrad_parts.data();
  float* bparts = bgrad_parts.data();
  std::memset(wparts, 0, parts * wnumel * sizeof(float));
  std::memset(bparts, 0, parts * cout * sizeof(float));

  // As in the forward, a pointwise conv with one sample per group reads the
  // stashed input as its columns and writes dX straight into grad_input.
  const bool in_place = g == 1 && pointwise();
  const tensor::PackedA wtpack(weight_.value.data(), k, cout, /*transposed=*/true);

  tensor::parallel_for_tasks(parts, [&](std::size_t part) {
    const std::size_t wmax = g * ohow;
    tensor::ScratchBuffer cols(in_place ? 1 : k * wmax);
    tensor::ScratchBuffer cols_grad(in_place ? 1 : k * wmax);
    tensor::ScratchBuffer lbuf(g > 1 ? cout * wmax : 1);
    float* colbuf = cols.data();
    float* cgp = cols_grad.data();
    float* lbp = lbuf.data();
    float* wg = wparts + part * wnumel;
    float* bg = bparts + part * cout;
    const std::size_t grp_end = std::min(groups, (part + 1) * per_part);
    for (std::size_t grp = part * per_part; grp < grp_end; ++grp) {
      const std::size_t s0 = grp * g, gs = std::min(g, n - s0), w = gs * ohow;
      // Loss and columns of the group as [cout, w] and [k, w] matrices.
      const float* lg = grad_output.data() + s0 * out_img;
      if (gs > 1) {
        tensor::parallel_for(gs, cout * ohow, [&](std::size_t i) {
          for (std::size_t oc = 0; oc < cout; ++oc)
            std::memcpy(lbp + oc * w + i * ohow, lg + i * out_img + oc * ohow,
                        ohow * sizeof(float));
        });
        lg = lbp;
      }
      const float* colp = input.data() + s0 * in_img;
      if (!in_place) {
        tensor::parallel_for(gs, k * ohow, [&](std::size_t i) {
          tensor::im2col(input.data() + (s0 + i) * in_img, spec_.in_channels, input_shape_.h(),
                         input_shape_.w(), spec_.kh(), spec_.kw(), spec_.stride, spec_.ph(),
                         colbuf + i * ohow, spec_.pw(), w);
        });
        colp = colbuf;
      }
      // Weight gradient: dW[oc, k] += L[oc, w] * cols^T[w, k].
      tensor::gemm_bt(lg, colp, wg, cout, w, k, /*accumulate=*/true);
      if (spec_.bias) {
        for (std::size_t oc = 0; oc < cout; ++oc) {
          double acc = 0.0;
          const float* row = lg + oc * w;
          for (std::size_t j = 0; j < w; ++j) acc += row[j];
          bg[oc] += static_cast<float>(acc);
        }
      }
      // Input gradient: cols_grad[k, w] = W^T[k, oc] * L[oc, w].
      float* dx = grad_input.data() + s0 * in_img;
      if (in_place) {
        tensor::gemm_packed(wtpack, lg, dx, w);
        // col2im's `0.0f +`: a fused kernel rounds a sum of underflowing
        // products to -0, and the im2col path's bytes carry +0 there.
        for (std::size_t i = 0; i < in_img; ++i) dx[i] = 0.0f + dx[i];
        continue;
      }
      tensor::gemm_packed(wtpack, lg, cgp, w);
      tensor::parallel_for(gs, k * ohow, [&](std::size_t i) {
        tensor::col2im(cgp + i * ohow, spec_.in_channels, input_shape_.h(), input_shape_.w(),
                       spec_.kh(), spec_.kw(), spec_.stride, spec_.ph(), dx + i * in_img,
                       spec_.pw(), w);
      });
    }
  });

  for (std::size_t p = 0; p < parts; ++p) {
    tensor::axpy(1.0f, {wparts + p * wnumel, wnumel}, weight_.grad.span());
    if (spec_.bias)
      tensor::axpy(1.0f, {bparts + p * cout, cout}, bias_.grad.span());
  }
  return grad_input;
}

}  // namespace ebct::nn
