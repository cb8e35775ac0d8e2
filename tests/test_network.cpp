// Network container, activation stores, SGD and end-to-end training on a
// tiny synthetic problem — the framework substrate has to actually learn.

#include <gtest/gtest.h>

#include "baselines/lossless.hpp"
#include "memory/pager.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/network.hpp"
#include "nn/pooling.hpp"
#include "nn/sgd.hpp"
#include "nn/simple_layers.hpp"
#include "nn/softmax_xent.hpp"
#include "util/test_util.hpp"

namespace ebct::nn {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

std::unique_ptr<Network> tiny_cnn(std::uint64_t seed = 100) {
  Rng rng(seed);
  auto net = std::make_unique<Network>("tiny");
  net->add(std::make_unique<Conv2d>("conv1", Conv2dSpec{1, 4, 3, 1, 1}, rng));
  net->add(std::make_unique<ReLU>("relu1"));
  net->add(std::make_unique<MaxPool>("pool1", PoolSpec{2, 2, 0}));
  net->add(std::make_unique<Conv2d>("conv2", Conv2dSpec{4, 8, 3, 1, 1}, rng));
  net->add(std::make_unique<ReLU>("relu2"));
  net->add(std::make_unique<GlobalAvgPool>("gap"));
  net->add(std::make_unique<Flatten>("flatten"));
  net->add(std::make_unique<Linear>("fc", 8, 2, rng));
  return net;
}

// Trivially separable 2-class problem: class 0 = negative mean, class 1 =
// positive mean plus noise.
void make_batch(Rng& rng, std::size_t n, Tensor& x, std::vector<std::int32_t>& y) {
  x = Tensor(Shape::nchw(n, 1, 8, 8));
  y.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    const std::int32_t label = static_cast<std::int32_t>(rng.uniform_index(2));
    y[s] = label;
    const float mean = label == 0 ? -0.5f : 0.5f;
    for (std::size_t i = 0; i < 64; ++i)
      x.data()[s * 64 + i] = mean + static_cast<float>(rng.normal(0.0, 0.3));
  }
}

TEST(Network, ShapeTraceMatchesForward) {
  auto net = tiny_cnn();
  const auto trace = net->shape_trace(Shape::nchw(2, 1, 8, 8));
  Tensor x = testutil::random_tensor(Shape::nchw(2, 1, 8, 8), 101);
  Tensor out = net->forward(x, true);
  EXPECT_EQ(trace.back().second, out.shape());
  EXPECT_EQ(out.shape(), Shape({2, 2}));
  // Drain stashes.
  net->backward(Tensor(out.shape(), 0.0f));
}

TEST(Network, ConvActivationBytesCountsConvInputsOnly) {
  auto net = tiny_cnn();
  // conv1 input: 2*1*8*8 floats; conv2 input: 2*4*4*4 floats.
  const std::size_t expect = (2 * 1 * 8 * 8 + 2 * 4 * 4 * 4) * sizeof(float);
  EXPECT_EQ(net->conv_activation_bytes(Shape::nchw(2, 1, 8, 8)), expect);
}

TEST(Network, ParamsCollectsAll) {
  auto net = tiny_cnn();
  // conv1 (w+b), conv2 (w+b), fc (w+b)
  EXPECT_EQ(net->params().size(), 6u);
  EXPECT_GT(net->num_parameters(), 0u);
}

TEST(Network, ZeroGradClearsGradients) {
  auto net = tiny_cnn();
  Tensor x = testutil::random_tensor(Shape::nchw(2, 1, 8, 8), 102);
  Tensor out = net->forward(x, true);
  net->backward(Tensor(out.shape(), 1.0f));
  net->zero_grad();
  for (Param* p : net->params())
    for (std::size_t i = 0; i < p->grad.numel(); ++i) EXPECT_EQ(p->grad[i], 0.0f);
}

TEST(Network, VisitFindsConvLayers) {
  auto net = tiny_cnn();
  int convs = 0;
  net->visit([&](Layer& l) {
    if (dynamic_cast<Conv2d*>(&l)) ++convs;
  });
  EXPECT_EQ(convs, 2);
}

TEST(RawStoreTest, StashRetrieveLifo) {
  RawStore store;
  Tensor a(Shape{4}, 1.0f), b(Shape{4}, 2.0f);
  const auto ha = store.stash("l1", std::move(a));
  const auto hb = store.stash("l2", std::move(b));
  EXPECT_EQ(store.held_bytes(), 32u);
  Tensor rb = store.retrieve(hb);
  EXPECT_FLOAT_EQ(rb[0], 2.0f);
  Tensor ra = store.retrieve(ha);
  EXPECT_FLOAT_EQ(ra[0], 1.0f);
  EXPECT_EQ(store.held_bytes(), 0u);
}

TEST(RawStoreTest, UnknownHandleThrows) {
  RawStore store;
  EXPECT_THROW(store.retrieve(99), std::logic_error);
}

TEST(CodecStoreTest, LosslessRoundtripThroughStore) {
  memory::PagedStore store(memory::PagerConfig{}, std::make_shared<baselines::LosslessCodec>());
  Tensor t = testutil::relu_like_tensor(Shape::nchw(2, 8, 16, 16), 103, 0.6);
  Tensor orig = t.clone();
  const auto h = store.stash("conv1", std::move(t));
  EXPECT_GT(store.held_bytes(), 0u);
  EXPECT_LT(store.held_bytes(), orig.bytes());  // actually compressed
  Tensor back = store.retrieve(h);
  ASSERT_EQ(back.shape(), orig.shape());
  for (std::size_t i = 0; i < back.numel(); ++i) EXPECT_FLOAT_EQ(back[i], orig[i]);
  EXPECT_EQ(store.held_bytes(), 0u);
}

TEST(StepLrSchedule, DecaysAtSteps) {
  StepLr s(0.1, 0.5, 100);
  EXPECT_DOUBLE_EQ(s.lr(0), 0.1);
  EXPECT_DOUBLE_EQ(s.lr(99), 0.1);
  EXPECT_DOUBLE_EQ(s.lr(100), 0.05);
  EXPECT_DOUBLE_EQ(s.lr(250), 0.025);
}

TEST(SgdOptimizer, SingleStepMatchesFormula) {
  Param p("w", Shape{1});
  p.value[0] = 1.0f;
  p.grad[0] = 0.5f;
  Sgd sgd(SgdOptions{0.9, 0.0});
  Param* arr[] = {&p};
  sgd.step(arr, 0.1);
  // v = 0.9*0 + 0.5 = 0.5; w = 1 - 0.1*0.5 = 0.95
  EXPECT_NEAR(p.value[0], 0.95f, 1e-6);
  EXPECT_NEAR(p.momentum[0], 0.5f, 1e-6);
  EXPECT_EQ(p.grad[0], 0.0f);  // cleared
  // Second step with zero grad: momentum decays.
  sgd.step(arr, 0.1);
  EXPECT_NEAR(p.momentum[0], 0.45f, 1e-6);
}

TEST(SgdOptimizer, WeightDecayPullsTowardZero) {
  Param p("w", Shape{1});
  p.value[0] = 2.0f;
  Sgd sgd(SgdOptions{0.0, 0.1});
  Param* arr[] = {&p};
  sgd.step(arr, 1.0);
  EXPECT_NEAR(p.value[0], 2.0f - 0.1 * 2.0f, 1e-6);
}

TEST(SgdOptimizer, DecayMultiplierZeroExempts) {
  Param p("gamma", Shape{1});
  p.value[0] = 2.0f;
  p.weight_decay_multiplier = 0.0;
  Sgd sgd(SgdOptions{0.0, 0.1});
  Param* arr[] = {&p};
  sgd.step(arr, 1.0);
  EXPECT_FLOAT_EQ(p.value[0], 2.0f);
}

TEST(SgdOptimizer, MomentumMeanAbs) {
  Param p("w", Shape{2});
  p.momentum[0] = -1.0f;
  p.momentum[1] = 3.0f;
  Param* arr[] = {&p};
  EXPECT_DOUBLE_EQ(Sgd::momentum_mean_abs(arr), 2.0);
}

TEST(TrainingLoop, LossDecreasesOnSeparableProblem) {
  auto net = tiny_cnn(104);
  Sgd sgd(SgdOptions{0.9, 0.0});
  SoftmaxCrossEntropy head;
  Rng rng(105);
  Tensor x;
  std::vector<std::int32_t> y;

  double first_loss = 0.0, last_loss = 0.0;
  for (int it = 0; it < 60; ++it) {
    make_batch(rng, 16, x, y);
    Tensor logits = net->forward(x, true);
    const auto r = head.compute(logits, y);
    if (it == 0) first_loss = r.loss;
    last_loss = r.loss;
    net->backward(r.grad_logits);
    auto params = net->params();
    sgd.step(params, 0.05);
  }
  EXPECT_LT(last_loss, first_loss * 0.7);
}

TEST(TrainingLoop, CompressedStoreTrainsAsWellAsRaw) {
  // Same seed/batches, one net with raw store and one with a lossless codec
  // store — losses must be bit-for-bit comparable (lossless!).
  auto net_a = tiny_cnn(106);
  auto net_b = tiny_cnn(106);
  memory::PagedStore codec_store(memory::PagerConfig{},
                                 std::make_shared<baselines::LosslessCodec>());
  net_b->set_store(&codec_store);

  Sgd sgd_a(SgdOptions{0.9, 0.0}), sgd_b(SgdOptions{0.9, 0.0});
  SoftmaxCrossEntropy head;
  Rng rng_a(107), rng_b(107);
  Tensor xa, xb;
  std::vector<std::int32_t> ya, yb;
  for (int it = 0; it < 10; ++it) {
    make_batch(rng_a, 8, xa, ya);
    make_batch(rng_b, 8, xb, yb);
    const auto ra = head.compute(net_a->forward(xa, true), ya);
    const auto rb = head.compute(net_b->forward(xb, true), yb);
    EXPECT_NEAR(ra.loss, rb.loss, 1e-7 * (1.0 + std::fabs(ra.loss)))
        << "iteration " << it;
    net_a->backward(ra.grad_logits);
    net_b->backward(rb.grad_logits);
    auto pa = net_a->params();
    auto pb = net_b->params();
    sgd_a.step(pa, 0.05);
    sgd_b.step(pb, 0.05);
  }
}

}  // namespace
}  // namespace ebct::nn
