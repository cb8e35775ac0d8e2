// Layer-level tests: forward semantics on hand-computed cases plus
// numerical gradient checks (central differences) for every differentiable
// layer — the strongest correctness evidence a training framework can have.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/lrn.hpp"
#include "nn/pooling.hpp"
#include "nn/residual.hpp"
#include "nn/simple_layers.hpp"
#include "nn/softmax_xent.hpp"
#include "tensor/alloc.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/sched.hpp"
#include "util/test_util.hpp"

namespace ebct::nn {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;
using testutil::check_input_gradient;
using testutil::check_param_gradient;
using testutil::random_tensor;

// --- ReLU -------------------------------------------------------------------

TEST(ReLULayer, ForwardClampsNegatives) {
  ReLU relu("r");
  Tensor x(Shape{4});
  x[0] = -1.0f;
  x[1] = 0.0f;
  x[2] = 2.0f;
  x[3] = -0.5f;
  Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(ReLULayer, BackwardMasksGradient) {
  ReLU relu("r");
  Tensor x(Shape{3});
  x[0] = -1.0f;
  x[1] = 1.0f;
  x[2] = 3.0f;
  relu.forward(x, true);
  Tensor g(Shape{3}, 1.0f);
  Tensor gi = relu.backward(g);
  EXPECT_FLOAT_EQ(gi[0], 0.0f);
  EXPECT_FLOAT_EQ(gi[1], 1.0f);
  EXPECT_FLOAT_EQ(gi[2], 1.0f);
}

TEST(ReLULayer, GradCheck) {
  ReLU relu("r");
  // Keep inputs away from the kink at 0 for a clean finite-difference.
  auto make = [] {
    Tensor t = random_tensor(Shape::nchw(2, 3, 4, 4), 51);
    for (std::size_t i = 0; i < t.numel(); ++i)
      if (std::fabs(t[i]) < 0.05f) t[i] = 0.5f;
    return t;
  };
  EXPECT_LT(check_input_gradient(relu, make), 1e-2);
}

TEST(ReLULayer, WordParallelMatchesScalarAcrossPools) {
  // numel % 64 != 0 puts a partial word at the end; numel > 64K elements
  // makes the word loop fork. Output, mask and gradient must be the scalar
  // definition at every pool size.
  const Shape shape = Shape::nchw(3, 5, 71, 67);
  ASSERT_NE(shape.numel() % 64, 0u);
  Tensor x = random_tensor(shape, 31);
  Tensor g = random_tensor(shape, 32);
  const int pool = tensor::sched::num_threads();
  for (int t : {1, 2, 4}) {
    tensor::sched::set_num_threads(t);
    ReLU relu("r");
    Tensor y = relu.forward(x, true);
    Tensor gi = relu.backward(g);
    for (std::size_t i = 0; i < x.numel(); ++i) {
      const bool pos = x[i] > 0.0f;
      ASSERT_EQ(y[i], pos ? x[i] : 0.0f) << "pool " << t << " at " << i;
      ASSERT_EQ(gi[i], pos ? g[i] : 0.0f) << "pool " << t << " at " << i;
    }
  }
  tensor::sched::set_num_threads(pool);
}

// --- Flatten / Dropout -------------------------------------------------------

TEST(FlattenLayer, RoundtripShapes) {
  Flatten f("f");
  Tensor x = random_tensor(Shape::nchw(2, 3, 4, 5), 52);
  Tensor y = f.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({2, 60}));
  Tensor g = f.backward(y);
  EXPECT_EQ(g.shape(), x.shape());
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(g[i], x[i]);
}

TEST(DropoutLayer, EvalIsIdentity) {
  Dropout d("d", 0.5, 1);
  Tensor x = random_tensor(Shape{100}, 53);
  Tensor y = d.forward(x, /*train=*/false);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(DropoutLayer, TrainDropsAndScales) {
  Dropout d("d", 0.5, 2);
  Tensor x(Shape{10000}, 1.0f);
  Tensor y = d.forward(x, true);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    if (y[i] != 0.0f) {
      EXPECT_FLOAT_EQ(y[i], 2.0f);  // 1/(1-0.5)
      ++kept;
    }
  }
  EXPECT_NEAR(static_cast<double>(kept) / y.numel(), 0.5, 0.03);
}

TEST(DropoutLayer, BackwardUsesSameMask) {
  Dropout d("d", 0.3, 3);
  Tensor x(Shape{1000}, 1.0f);
  Tensor y = d.forward(x, true);
  Tensor g(Shape{1000}, 1.0f);
  Tensor gi = d.backward(g);
  for (std::size_t i = 0; i < y.numel(); ++i) {
    EXPECT_FLOAT_EQ(gi[i], y[i]);  // identical masking and scaling of ones
  }
}

// --- Conv2d -------------------------------------------------------------------

TEST(Conv2dLayer, KnownConvolution) {
  // 1 channel, 3x3 image, 2x2 kernel of ones, no pad, stride 1.
  Rng rng(54);
  Conv2d conv("c", Conv2dSpec{1, 1, 2, 1, 0, /*bias=*/false}, rng);
  conv.weight().value.fill(1.0f);
  RawStore store;
  conv.set_store(&store);
  Tensor x(Shape::nchw(1, 1, 3, 3));
  for (std::size_t i = 0; i < 9; ++i) x[i] = static_cast<float>(i + 1);
  Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.shape(), Shape::nchw(1, 1, 2, 2));
  EXPECT_FLOAT_EQ(y[0], 1 + 2 + 4 + 5);
  EXPECT_FLOAT_EQ(y[1], 2 + 3 + 5 + 6);
  EXPECT_FLOAT_EQ(y[2], 4 + 5 + 7 + 8);
  EXPECT_FLOAT_EQ(y[3], 5 + 6 + 8 + 9);
}

TEST(Conv2dLayer, BiasAddsPerChannel) {
  Rng rng(55);
  Conv2d conv("c", Conv2dSpec{1, 2, 1, 1, 0, true}, rng);
  conv.weight().value.fill(0.0f);
  conv.bias_param().value[0] = 1.5f;
  conv.bias_param().value[1] = -2.0f;
  RawStore store;
  conv.set_store(&store);
  Tensor x(Shape::nchw(1, 1, 2, 2), 0.0f);
  Tensor y = conv.forward(x, true);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 1, 1), -2.0f);
}

TEST(Conv2dLayer, OutputShapeStridePad) {
  Rng rng(56);
  Conv2d conv("c", Conv2dSpec{3, 8, 3, 2, 1}, rng);
  EXPECT_EQ(conv.output_shape(Shape::nchw(4, 3, 32, 32)), Shape::nchw(4, 8, 16, 16));
}

TEST(Conv2dLayer, InputGradCheck) {
  Rng rng(57);
  Conv2d conv("c", Conv2dSpec{2, 3, 3, 1, 1}, rng);
  RawStore store;
  conv.set_store(&store);
  auto make = [] { return random_tensor(Shape::nchw(2, 2, 5, 5), 58); };
  EXPECT_LT(check_input_gradient(conv, make), 2e-2);
}

TEST(Conv2dLayer, WeightGradCheck) {
  Rng rng(59);
  Conv2d conv("c", Conv2dSpec{2, 2, 3, 2, 1}, rng);
  RawStore store;
  conv.set_store(&store);
  auto make = [] { return random_tensor(Shape::nchw(2, 2, 6, 6), 60); };
  EXPECT_LT(check_param_gradient(conv, conv.weight(), make), 1e-2);
}

TEST(Conv2dLayer, BiasGradCheck) {
  Rng rng(61);
  Conv2d conv("c", Conv2dSpec{1, 2, 3, 1, 1}, rng);
  RawStore store;
  conv.set_store(&store);
  auto make = [] { return random_tensor(Shape::nchw(2, 1, 4, 4), 62); };
  EXPECT_LT(check_param_gradient(conv, conv.bias_param(), make), 1e-2);
}

TEST(Conv2dLayer, RecordsLossAndDensityStats) {
  Rng rng(63);
  Conv2d conv("c", Conv2dSpec{1, 1, 3, 1, 1}, rng);
  RawStore store;
  conv.set_store(&store);
  Tensor x = testutil::relu_like_tensor(Shape::nchw(2, 1, 8, 8), 64, 0.5);
  conv.forward(x, true);
  Tensor g(conv.output_shape(x.shape()), 0.25f);
  conv.backward(g);
  EXPECT_NEAR(conv.last_input_density(), 0.5, 0.15);
  EXPECT_NEAR(conv.last_loss_mean_abs(), 0.25, 1e-6);
}

TEST(Conv2dLayer, BackwardWithoutStoreThrows) {
  Rng rng(65);
  Conv2d conv("c", Conv2dSpec{1, 1, 3, 1, 1}, rng);
  Tensor g(Shape::nchw(1, 1, 4, 4));
  EXPECT_THROW(conv.backward(g), std::logic_error);
}

TEST(Conv2dLayer, ZeroBatchForwardBackward) {
  // Degenerate batch 0 must flow through both passes without dividing by a
  // zero part count (regression: the fixed-fanout grad reduction).
  Rng rng(67);
  Conv2d conv("c", Conv2dSpec{2, 3, 3, 1, 1}, rng);
  RawStore store;
  conv.set_store(&store);
  Tensor x(Shape::nchw(0, 2, 4, 4));
  Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.shape().n(), 0u);
  Tensor gi = conv.backward(Tensor(y.shape(), 0.0f));
  EXPECT_EQ(gi.numel(), 0u);
}

TEST(Conv2dLayer, ChannelMismatchThrows) {
  Rng rng(66);
  Conv2d conv("c", Conv2dSpec{3, 4, 3, 1, 1}, rng);
  RawStore store;
  conv.set_store(&store);
  Tensor x(Shape::nchw(1, 2, 4, 4));
  EXPECT_THROW(conv.forward(x, true), std::invalid_argument);
}

TEST(Conv2dLayer, WeightGradPartialsReuseScratchArena) {
  // The fixed-fanout weight-grad partial buffers come from the calling
  // thread's scratch arena: after a warm-up iteration, further backward
  // passes must be free-list hits — the arena's capacity stops growing.
  Rng rng(68);
  Conv2d conv("c", Conv2dSpec{4, 8, 3, 1, 1}, rng);
  RawStore store;
  conv.set_store(&store);
  Tensor x = random_tensor(Shape::nchw(3, 4, 8, 8), 168);
  // Pool of 1 keeps every task on this thread: under stealing, a help-first
  // join may nest two sample tasks on one thread and (correctly, boundedly)
  // grow that thread's arena, which would make exact-capacity flaky.
  const int pool = tensor::sched::num_threads();
  tensor::sched::set_num_threads(1);
  auto step = [&] {
    Tensor y = conv.forward(x, true);
    conv.backward(Tensor(y.shape(), 0.1f));
  };
  step();  // warm-up sizes the arena
  const std::size_t cap = tensor::ScratchArena::local().capacity_bytes();
  for (int i = 0; i < 3; ++i) step();
  EXPECT_EQ(tensor::ScratchArena::local().capacity_bytes(), cap);
  tensor::sched::set_num_threads(pool);
}

/// Per-sample reference for the batched conv: each sample through its own
/// batch-1 forward/backward (one GEMM per sample), outputs and input
/// gradients concatenated, weight/bias gradients summed in sample order.
struct ConvRun {
  std::vector<float> out, grad_in, dw, db;
};

ConvRun run_conv(const Conv2dSpec& spec, const Tensor& x, const Tensor& gy, bool per_sample) {
  Rng rng(90);
  Conv2d conv("c", spec, rng);
  RawStore store;
  conv.set_store(&store);
  ConvRun r;
  auto step = [&](const Tensor& xs, const Tensor& gs) {
    Tensor y = conv.forward(xs, true);
    Tensor gi = conv.backward(gs);
    r.out.insert(r.out.end(), y.data(), y.data() + y.numel());
    r.grad_in.insert(r.grad_in.end(), gi.data(), gi.data() + gi.numel());
  };
  if (per_sample) {
    const Shape xs = Shape::nchw(1, x.shape().c(), x.shape().h(), x.shape().w());
    const Shape gs = Shape::nchw(1, gy.shape().c(), gy.shape().h(), gy.shape().w());
    for (std::size_t s = 0; s < x.shape().n(); ++s) {
      Tensor xi(xs), gi(gs);
      std::copy_n(x.data() + s * xs.numel(), xs.numel(), xi.data());
      std::copy_n(gy.data() + s * gs.numel(), gs.numel(), gi.data());
      step(xi, gi);
    }
  } else {
    step(x, gy);
  }
  const Tensor& dw = conv.weight().grad;
  const Tensor& db = conv.bias_param().grad;
  r.dw.assign(dw.data(), dw.data() + dw.numel());
  r.db.assign(db.data(), db.data() + db.numel());
  return r;
}

double max_rel_diff(const std::vector<float>& a, const std::vector<float>& ref) {
  double diff = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    diff = std::max(diff, std::fabs(double(a[i]) - ref[i]));
    scale = std::max(scale, std::fabs(double(ref[i])));
  }
  return scale > 0.0 ? diff / scale : diff;
}

struct BatchedConvCase {
  const char* what;
  Conv2dSpec spec;
  std::size_t n, h, w;
  /// Loss entries of magnitude denorm_min: a dX product with |W| < 0.5 then
  /// underflows, and a fused kernel rounds such a sum to -0.
  bool tiny_loss = false;
};

std::size_t negative_zeros(const float* v, std::size_t count) {
  std::size_t z = 0;
  for (std::size_t i = 0; i < count; ++i) z += v[i] == 0.0f && std::signbit(v[i]);
  return z;
}

/// The batched conv against the per-sample reference at pools 1, 2 and N:
/// forward and input gradient bitwise, dW/db within 1e-5 (only their
/// summation order changes) and bitwise stable across pools. The input
/// gradient carries no -0 on any path: col2im's `0.0f +` turns it into +0,
/// and the in-place pointwise path must do the same.
void check_batched_conv(const BatchedConvCase& c, const char* level) {
  Rng shape_rng(1);
  Conv2d probe("p", c.spec, shape_rng);
  const Shape in = Shape::nchw(c.n, c.spec.in_channels, c.h, c.w);
  Tensor x = random_tensor(in, 91);
  Tensor gy = random_tensor(probe.output_shape(in), 92);
  if (c.tiny_loss) {
    for (float& v : gy.span()) v = std::copysign(std::numeric_limits<float>::denorm_min(), v);
    // The premise: at a fused level the raw dX GEMM of this data holds -0s
    // (run_conv's layer draws its weights from Rng(90)).
    Rng wrng(90);
    Conv2d conv("c", c.spec, wrng);
    const std::size_t k = c.spec.in_channels, cout = c.spec.out_channels, hw = c.h * c.w;
    std::vector<float> dcols(k * hw);
    tensor::gemm_at(conv.weight().value.data(), gy.data(), dcols.data(), k, cout, hw);
    if (tensor::gemm_isa() != tensor::GemmIsa::kPortable) {
      EXPECT_GT(negative_zeros(dcols.data(), dcols.size()), 0u)
          << level << ": no product underflowed to -0";
    }
  }
  const ConvRun ref = run_conv(c.spec, x, gy, /*per_sample=*/true);
  EXPECT_EQ(negative_zeros(ref.grad_in.data(), ref.grad_in.size()), 0u)
      << level << ", " << c.what << ": per-sample input gradient holds -0";
  const int pool = tensor::sched::num_threads();
  ConvRun first;
  for (int t : {1, 2, pool > 2 ? pool : 4}) {
    tensor::sched::set_num_threads(t);
    const ConvRun got = run_conv(c.spec, x, gy, /*per_sample=*/false);
    tensor::sched::set_num_threads(pool);
    SCOPED_TRACE(std::string(level) + ", " + c.what + ", pool " + std::to_string(t));
    ASSERT_EQ(got.out.size(), ref.out.size());
    EXPECT_EQ(0, std::memcmp(got.out.data(), ref.out.data(), ref.out.size() * sizeof(float)))
        << "forward differs from the per-sample path";
    EXPECT_EQ(0, std::memcmp(got.grad_in.data(), ref.grad_in.data(),
                             ref.grad_in.size() * sizeof(float)))
        << "input gradient differs from the per-sample path";
    EXPECT_LT(max_rel_diff(got.dw, ref.dw), 1e-5);
    EXPECT_LT(max_rel_diff(got.db, ref.db), 1e-5);
    if (t == 1) {
      first = got;
    } else {  // the group partition is pool-size free
      EXPECT_EQ(0, std::memcmp(got.dw.data(), first.dw.data(), first.dw.size() * sizeof(float)));
      EXPECT_EQ(0, std::memcmp(got.db.data(), first.db.data(), first.db.size() * sizeof(float)));
    }
  }
}

TEST(Conv2dLayer, BatchedGemmMatchesPerSampleReference) {
  Conv2dSpec rect_1x7{6, 5, 1, 1, 0};
  rect_1x7.kernel_w = 7;
  rect_1x7.pad_w = 3;
  Conv2dSpec rect_7x1{6, 5, 7, 1, 3};
  rect_7x1.kernel_w = 1;
  rect_7x1.pad_w = 0;
  // Groups hold the fewest samples whose columns reach 32 (forward) or 64
  // (backward), spread evenly over the batch; "fwd/bwd" below counts them.
  const BatchedConvCase cases[] = {
      {"ohow >= 64 (one sample per group)", {3, 8, 3, 1, 1}, 3, 16, 16},
      {"more groups than weight-grad parts", {2, 4, 3, 1, 1}, 18, 13, 13},
      {"ragged last bwd group (3, 3, 3, 2 samples)", {4, 8, 3, 1, 1}, 11, 6, 6},
      {"n = 1", {4, 8, 3, 1, 1}, 1, 4, 4},
      {"stride 2 (fwd 6 groups of 2, bwd 3 of 4)", {4, 8, 3, 2, 1}, 12, 8, 8},
      {"1x7 with pad_w", rect_1x7, 9, 5, 5},
      {"7x1 with pad_w", rect_7x1, 9, 5, 5},
      {"16 samples at 4x4 (fwd 8 groups of 2, bwd 4 of 4)", {8, 8, 3, 1, 1}, 16, 4, 4},
      {"1x1 grouped (im2col path)", {8, 6, 1, 1, 0}, 8, 4, 4},
      {"1x1 in place, bias", {8, 6, 1, 1, 0}, 5, 8, 8},
      {"1x1 in place, no bias", {8, 6, 1, 1, 0, false}, 5, 9, 9},
      {"1x1 in place fwd, grouped bwd", {8, 6, 1, 1, 0}, 6, 6, 6},
      {"1x1 in place, dX products underflow", {64, 4, 1, 1, 0, false}, 3, 8, 8, true},
  };
  for (int level = 0; level < tensor::kNumGemmIsas; ++level) {
    const auto isa = static_cast<tensor::GemmIsa>(level);
    if (!tensor::gemm_isa_supported(isa)) continue;
    tensor::ScopedGemmIsa pin(isa);
    for (const BatchedConvCase& c : cases) check_batched_conv(c, tensor::gemm_isa_name(isa));
  }
}

// --- Pooling -------------------------------------------------------------------

TEST(MaxPoolLayer, ForwardPicksMax) {
  MaxPool pool("p", PoolSpec{2, 2, 0});
  Tensor x(Shape::nchw(1, 1, 2, 2));
  x[0] = 1;
  x[1] = 5;
  x[2] = 3;
  x[3] = 2;
  Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), Shape::nchw(1, 1, 1, 1));
  EXPECT_FLOAT_EQ(y[0], 5.0f);
}

TEST(MaxPoolLayer, BackwardRoutesToArgmax) {
  MaxPool pool("p", PoolSpec{2, 2, 0});
  Tensor x(Shape::nchw(1, 1, 2, 2));
  x[0] = 1;
  x[1] = 5;
  x[2] = 3;
  x[3] = 2;
  pool.forward(x, true);
  Tensor g(Shape::nchw(1, 1, 1, 1), 7.0f);
  Tensor gi = pool.backward(g);
  EXPECT_FLOAT_EQ(gi[0], 0.0f);
  EXPECT_FLOAT_EQ(gi[1], 7.0f);
  EXPECT_FLOAT_EQ(gi[2], 0.0f);
}

TEST(MaxPoolLayer, GradCheck) {
  MaxPool pool("p", PoolSpec{3, 2, 0});
  auto make = [] { return random_tensor(Shape::nchw(2, 2, 7, 7), 67); };
  EXPECT_LT(check_input_gradient(pool, make), 1e-2);
}

TEST(AvgPoolLayer, ForwardAverages) {
  AvgPool pool("p", PoolSpec{2, 2, 0});
  Tensor x(Shape::nchw(1, 1, 2, 2));
  x[0] = 1;
  x[1] = 2;
  x[2] = 3;
  x[3] = 6;
  Tensor y = pool.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
}

TEST(AvgPoolLayer, GradCheck) {
  AvgPool pool("p", PoolSpec{2, 2, 0});
  auto make = [] { return random_tensor(Shape::nchw(2, 3, 6, 6), 68); };
  EXPECT_LT(check_input_gradient(pool, make), 1e-2);
}

TEST(GlobalAvgPoolLayer, ForwardAndGradCheck) {
  GlobalAvgPool gap("g");
  Tensor x(Shape::nchw(1, 2, 2, 2), 1.0f);
  x[0] = 3.0f;  // channel 0 mean = (3+1+1+1)/4 = 1.5
  Tensor y = gap.forward(x, true);
  EXPECT_EQ(y.shape(), Shape::nchw(1, 2, 1, 1));
  EXPECT_FLOAT_EQ(y[0], 1.5f);
  EXPECT_FLOAT_EQ(y[1], 1.0f);

  auto make = [] { return random_tensor(Shape::nchw(2, 3, 4, 4), 69); };
  EXPECT_LT(check_input_gradient(gap, make), 1e-2);
}

// --- Linear -------------------------------------------------------------------

TEST(LinearLayer, KnownAffineMap) {
  Rng rng(70);
  Linear fc("fc", 2, 2, rng);
  fc.weight().value[0] = 1.0f;  // W = [[1, 2], [3, 4]]
  fc.weight().value[1] = 2.0f;
  fc.weight().value[2] = 3.0f;
  fc.weight().value[3] = 4.0f;
  fc.bias_param().value[0] = 0.5f;
  fc.bias_param().value[1] = -0.5f;
  Tensor x(Shape{1, 2});
  x[0] = 1.0f;
  x[1] = 1.0f;
  Tensor y = fc.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 3.5f);   // 1+2+0.5
  EXPECT_FLOAT_EQ(y[1], 6.5f);   // 3+4-0.5
}

TEST(LinearLayer, InputGradCheck) {
  Rng rng(71);
  Linear fc("fc", 6, 4, rng);
  auto make = [] { return random_tensor(Shape{3, 6}, 72); };
  EXPECT_LT(check_input_gradient(fc, make), 1e-2);
}

TEST(LinearLayer, WeightGradCheck) {
  Rng rng(73);
  Linear fc("fc", 5, 3, rng);
  auto make = [] { return random_tensor(Shape{2, 5}, 74); };
  EXPECT_LT(check_param_gradient(fc, fc.weight(), make), 1e-2);
}

TEST(LinearLayer, WrongInputShapeThrows) {
  Rng rng(75);
  Linear fc("fc", 5, 3, rng);
  Tensor x(Shape{2, 4});
  EXPECT_THROW(fc.forward(x, true), std::invalid_argument);
}

// --- BatchNorm -----------------------------------------------------------------

TEST(BatchNormLayer, TrainOutputIsNormalised) {
  BatchNorm bn("bn", 2);
  Tensor x = random_tensor(Shape::nchw(4, 2, 3, 3), 76, -3.0f, 5.0f);
  Tensor y = bn.forward(x, true);
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    std::size_t n = 0;
    for (std::size_t s = 0; s < 4; ++s)
      for (std::size_t i = 0; i < 9; ++i) {
        const float v = y.data()[(s * 2 + c) * 9 + i];
        sum += v;
        sq += double(v) * v;
        ++n;
      }
    EXPECT_NEAR(sum / n, 0.0, 1e-4);
    EXPECT_NEAR(sq / n, 1.0, 1e-2);
  }
}

TEST(BatchNormLayer, RunningStatsConvergeToBatchStats) {
  BatchNorm bn("bn", 1);
  Tensor x(Shape::nchw(2, 1, 4, 4), 3.0f);
  for (int i = 0; i < 60; ++i) bn.forward(x, true);
  EXPECT_NEAR(bn.running_mean()[0], 3.0, 0.05);
  EXPECT_NEAR(bn.running_var()[0], 0.0, 0.05);
}

TEST(BatchNormLayer, EvalUsesRunningStats) {
  BatchNorm bn("bn", 1);
  Tensor x(Shape::nchw(2, 1, 2, 2), 2.0f);
  for (int i = 0; i < 80; ++i) bn.forward(x, true);
  Tensor y = bn.forward(x, false);
  // With running mean ~2 and var ~0 (eps floor), output is ~0.
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], 0.0f, 0.2f);
}

TEST(BatchNormLayer, InputGradCheck) {
  BatchNorm bn("bn", 2);
  auto make = [] { return random_tensor(Shape::nchw(3, 2, 4, 4), 77); };
  EXPECT_LT(check_input_gradient(bn, make, 1e-3, 48), 2e-2);
}

TEST(BatchNormLayer, GammaBetaGradCheck) {
  BatchNorm bn("bn", 2);
  auto make = [] { return random_tensor(Shape::nchw(2, 2, 3, 3), 78); };
  auto params = bn.params();
  EXPECT_LT(check_param_gradient(bn, *params[0], make), 2e-2);
  bn.params()[0]->grad.zero();
  EXPECT_LT(check_param_gradient(bn, *params[1], make), 2e-2);
}

TEST(BatchNormLayer, SavedStateStaysFlatAcrossThreads) {
  // Under the graph executor a layer's forward and backward can run on
  // different threads. x_hat belongs to the layer, so the forward thread's
  // scratch arena must not grow however often that happens.
  BatchNorm bn("bn", 4);
  Tensor x = random_tensor(Shape::nchw(2, 4, 6, 6), 79);
  std::size_t cap = 0;
  for (int i = 0; i <= 50; ++i) {
    Tensor y = bn.forward(x, true);  // thread A: this one
    std::thread backward([&] { bn.backward(Tensor(y.shape(), 0.1f)); });  // thread B
    backward.join();
    if (i == 0)  // the first round sizes whatever the arena needs
      cap = tensor::ScratchArena::local().capacity_bytes();
    else
      ASSERT_EQ(tensor::ScratchArena::local().capacity_bytes(), cap) << "iteration " << i;
  }
}

TEST(BatchNormLayer, TrainForwardIsBitwiseAcrossPools) {
  // The fixed-lane statistics sums make forward(train=true) the same bytes
  // at every pool size. hw = 37 leaves a partial lane block per row.
  const Shape shape = Shape::nchw(5, 6, 37, 1);
  Tensor x = random_tensor(shape, 80, -2.0f, 7.0f);
  const int pool = tensor::sched::num_threads();
  std::vector<float> first;
  for (int t : {1, 2, 4}) {
    tensor::sched::set_num_threads(t);
    BatchNorm bn("bn", 6);
    Tensor y = bn.forward(x, true);
    if (first.empty())
      first.assign(y.data(), y.data() + y.numel());
    else
      ASSERT_EQ(0, std::memcmp(first.data(), y.data(), y.numel() * sizeof(float)))
          << "pool " << t;
  }
  tensor::sched::set_num_threads(pool);
}

TEST(BatchNormLayer, BackwardWithoutForwardThrows) {
  BatchNorm bn("bn", 1);
  EXPECT_THROW(bn.backward(Tensor(Shape::nchw(1, 1, 2, 2), 0.1f)), std::logic_error);
}

// --- LRN ------------------------------------------------------------------------

TEST(LrnLayer, ForwardMatchesFormula) {
  Lrn lrn("lrn", LrnSpec{3, 1e-1, 0.75, 2.0});
  Tensor x(Shape::nchw(1, 3, 1, 1));
  x[0] = 1.0f;
  x[1] = 2.0f;
  x[2] = 3.0f;
  Tensor y = lrn.forward(x, true);
  // Channel 1 window = {0,1,2}: scale = 2 + (0.1/3)*(1+4+9)
  const double scale = 2.0 + (0.1 / 3.0) * 14.0;
  EXPECT_NEAR(y[1], 2.0 * std::pow(scale, -0.75), 1e-5);
}

TEST(LrnLayer, GradCheck) {
  Lrn lrn("lrn", LrnSpec{5, 1e-2, 0.75, 2.0});
  auto make = [] { return random_tensor(Shape::nchw(2, 6, 3, 3), 79); };
  EXPECT_LT(check_input_gradient(lrn, make), 1e-2);
}

// --- Softmax cross-entropy -------------------------------------------------------

TEST(SoftmaxXent, UniformLogitsGiveLogK) {
  SoftmaxCrossEntropy head;
  Tensor logits(Shape{2, 4}, 0.0f);
  std::vector<std::int32_t> labels{0, 3};
  const auto r = head.compute(logits, labels);
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-6);
}

TEST(SoftmaxXent, GradSumsToZeroPerRow) {
  SoftmaxCrossEntropy head;
  Tensor logits = random_tensor(Shape{3, 5}, 80);
  std::vector<std::int32_t> labels{1, 4, 2};
  const auto r = head.compute(logits, labels);
  for (std::size_t s = 0; s < 3; ++s) {
    double row = 0.0;
    for (std::size_t j = 0; j < 5; ++j) row += r.grad_logits[s * 5 + j];
    EXPECT_NEAR(row, 0.0, 1e-6);
  }
}

TEST(SoftmaxXent, NumericalGradient) {
  SoftmaxCrossEntropy head;
  Tensor logits = random_tensor(Shape{2, 4}, 81);
  std::vector<std::int32_t> labels{2, 0};
  const auto r = head.compute(logits, labels);
  const double eps = 1e-3;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits.clone();
    lp[i] += static_cast<float>(eps);
    Tensor lm = logits.clone();
    lm[i] -= static_cast<float>(eps);
    const double numeric =
        (head.compute(lp, labels).loss - head.compute(lm, labels).loss) / (2 * eps);
    EXPECT_NEAR(numeric, r.grad_logits[i], 1e-3);
  }
}

TEST(SoftmaxXent, AccuracyCountsArgmax) {
  SoftmaxCrossEntropy head;
  Tensor logits(Shape{2, 3}, 0.0f);
  logits[0 * 3 + 1] = 5.0f;  // predicts 1
  logits[1 * 3 + 0] = 5.0f;  // predicts 0
  std::vector<std::int32_t> labels{1, 2};
  EXPECT_NEAR(head.compute(logits, labels).accuracy, 0.5, 1e-9);
}

TEST(SoftmaxXent, LabelOutOfRangeThrows) {
  SoftmaxCrossEntropy head;
  Tensor logits(Shape{1, 3}, 0.0f);
  std::vector<std::int32_t> labels{3};
  EXPECT_THROW(head.compute(logits, labels), std::invalid_argument);
}

// --- Residual block ---------------------------------------------------------------

std::unique_ptr<ResidualBlock> tiny_block(Rng& rng, bool projection) {
  std::vector<std::unique_ptr<Layer>> main;
  main.push_back(std::make_unique<Conv2d>("b.conv1", Conv2dSpec{2, 2, 3, 1, 1, false}, rng));
  main.push_back(std::make_unique<ReLU>("b.relu1"));
  main.push_back(std::make_unique<Conv2d>("b.conv2", Conv2dSpec{2, 2, 3, 1, 1, false}, rng));
  std::vector<std::unique_ptr<Layer>> sc;
  if (projection)
    sc.push_back(std::make_unique<Conv2d>("b.down", Conv2dSpec{2, 2, 1, 1, 0, false}, rng));
  return std::make_unique<ResidualBlock>("b", std::move(main), std::move(sc));
}

TEST(ResidualBlockLayer, IdentityShortcutShapes) {
  Rng rng(82);
  auto block = tiny_block(rng, false);
  RawStore store;
  block->set_store(&store);
  Tensor x = random_tensor(Shape::nchw(2, 2, 4, 4), 83);
  Tensor y = block->forward(x, true);
  EXPECT_EQ(y.shape(), x.shape());
  Tensor g = block->backward(random_tensor(y.shape(), 84));
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(ResidualBlockLayer, ZeroMainPathPassesInputThroughReLU) {
  Rng rng(85);
  auto block = tiny_block(rng, false);
  // Zero both conv weights: main(x) = 0, so out = ReLU(x).
  for (Param* p : block->params()) p->value.zero();
  RawStore store;
  block->set_store(&store);
  Tensor x = random_tensor(Shape::nchw(1, 2, 3, 3), 86);
  Tensor y = block->forward(x, true);
  for (std::size_t i = 0; i < x.numel(); ++i)
    EXPECT_FLOAT_EQ(y[i], x[i] > 0 ? x[i] : 0.0f);
}

TEST(ResidualBlockLayer, GradCheckIdentityShortcut) {
  Rng rng(87);
  auto block = tiny_block(rng, false);
  RawStore store;
  block->set_store(&store);
  auto make = [] {
    Tensor t = random_tensor(Shape::nchw(1, 2, 4, 4), 88);
    for (std::size_t i = 0; i < t.numel(); ++i)
      if (std::fabs(t[i]) < 0.05f) t[i] = 0.3f;
    return t;
  };
  EXPECT_LT(check_input_gradient(*block, make), 2e-2);
}

TEST(ResidualBlockLayer, GradCheckProjectionShortcut) {
  Rng rng(89);
  auto block = tiny_block(rng, true);
  RawStore store;
  block->set_store(&store);
  auto make = [] {
    Tensor t = random_tensor(Shape::nchw(1, 2, 4, 4), 90);
    for (std::size_t i = 0; i < t.numel(); ++i)
      if (std::fabs(t[i]) < 0.05f) t[i] = 0.3f;
    return t;
  };
  // The output ReLU has kinks wherever main(x)+shortcut(x) crosses zero;
  // a smaller finite-difference step keeps crossings rare. Elements that do
  // cross produce an O(1) discrepancy, so compare the low quantile instead
  // of insisting every probe is smooth: use a small step and a tolerance
  // that admits at most near-kink noise.
  EXPECT_LT(check_input_gradient(*block, make, 2e-4), 1e-1);
}

TEST(ResidualBlockLayer, ParamsCollectBothPaths) {
  Rng rng(91);
  auto block = tiny_block(rng, true);
  EXPECT_EQ(block->params().size(), 3u);  // conv1, conv2, down
}

TEST(ResidualBlockLayer, VisitReachesLeaves) {
  Rng rng(92);
  auto block = tiny_block(rng, true);
  int convs = 0;
  block->visit([&](Layer& l) {
    if (dynamic_cast<Conv2d*>(&l)) ++convs;
  });
  EXPECT_EQ(convs, 3);
}

}  // namespace
}  // namespace ebct::nn
