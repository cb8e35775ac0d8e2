// Tests for the extension modules: channel concatenation + Inception-V4.

#include <gtest/gtest.h>

#include "models/model_zoo.hpp"
#include "nn/concat.hpp"
#include "nn/conv2d.hpp"
#include "nn/simple_layers.hpp"
#include "util/test_util.hpp"

namespace ebct {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

// --- ConcatBranches -------------------------------------------------------------

std::unique_ptr<nn::ConcatBranches> two_branch(Rng& rng) {
  std::vector<std::vector<std::unique_ptr<nn::Layer>>> branches;
  {
    std::vector<std::unique_ptr<nn::Layer>> b;
    b.push_back(std::make_unique<nn::Conv2d>("cb.b0",
                                             nn::Conv2dSpec{2, 3, 3, 1, 1, false}, rng));
    branches.push_back(std::move(b));
  }
  {
    std::vector<std::unique_ptr<nn::Layer>> b;
    b.push_back(std::make_unique<nn::Conv2d>("cb.b1",
                                             nn::Conv2dSpec{2, 5, 1, 1, 0, false}, rng));
    branches.push_back(std::move(b));
  }
  return std::make_unique<nn::ConcatBranches>("cb", std::move(branches));
}

TEST(ConcatLayer, OutputShapeSumsChannels) {
  Rng rng(603);
  auto cb = two_branch(rng);
  EXPECT_EQ(cb->output_shape(Shape::nchw(2, 2, 6, 6)), Shape::nchw(2, 3 + 5, 6, 6));
}

TEST(ConcatLayer, ForwardConcatenatesAlongC) {
  Rng rng(604);
  auto cb = two_branch(rng);
  nn::RawStore store;
  cb->set_store(&store);
  Tensor x = testutil::random_tensor(Shape::nchw(1, 2, 4, 4), 605);
  Tensor y = cb->forward(x, true);
  EXPECT_EQ(y.shape().c(), 8u);
  // Drain.
  cb->backward(Tensor(y.shape(), 0.0f));
}

TEST(ConcatLayer, GradCheck) {
  Rng rng(606);
  auto cb = two_branch(rng);
  nn::RawStore store;
  cb->set_store(&store);
  auto make = [] { return testutil::random_tensor(Shape::nchw(1, 2, 4, 4), 607); };
  EXPECT_LT(testutil::check_input_gradient(*cb, make), 2e-2);
}

TEST(ConcatLayer, IdentityBranchPassesThrough) {
  Rng rng(608);
  std::vector<std::vector<std::unique_ptr<nn::Layer>>> branches;
  branches.emplace_back();  // identity
  {
    std::vector<std::unique_ptr<nn::Layer>> b;
    b.push_back(std::make_unique<nn::ReLU>("cb.relu"));
    branches.push_back(std::move(b));
  }
  nn::ConcatBranches cb("cb", std::move(branches));
  Tensor x(Shape::nchw(1, 1, 2, 2));
  x[0] = -1.0f;
  x[1] = 2.0f;
  x[2] = -3.0f;
  x[3] = 4.0f;
  Tensor y = cb.forward(x, true);
  EXPECT_EQ(y.shape().c(), 2u);
  EXPECT_FLOAT_EQ(y[0], -1.0f);  // identity branch
  EXPECT_FLOAT_EQ(y[4], 0.0f);   // ReLU branch clamps
  EXPECT_FLOAT_EQ(y[7], 4.0f);
}

TEST(ConcatLayer, VisitReachesAllLeaves) {
  Rng rng(609);
  auto cb = two_branch(rng);
  int count = 0;
  int containers = 0;
  cb->visit([&](nn::Layer& l) {
    ++count;
    if (dynamic_cast<nn::ConcatBranches*>(&l) != nullptr) ++containers;
  });
  // visit() covers the node itself *and* every child: the block plus its
  // two branch leaves.
  EXPECT_EQ(count, 3);
  EXPECT_EQ(containers, 1);
}

TEST(ConcatLayer, EmptyBranchStashesNothingAndPassesGradThrough) {
  Rng rng(613);
  std::vector<std::vector<std::unique_ptr<nn::Layer>>> branches;
  branches.emplace_back();  // identity
  {
    std::vector<std::unique_ptr<nn::Layer>> b;
    b.push_back(std::make_unique<nn::Conv2d>("cb.conv",
                                             nn::Conv2dSpec{2, 3, 3, 1, 1, false}, rng));
    branches.push_back(std::move(b));
  }
  nn::ConcatBranches cb("cb", std::move(branches));
  nn::RawStore store;
  cb.set_store(&store);
  const Shape in = Shape::nchw(1, 2, 4, 4);

  // The identity branch stashes nothing: activation accounting counts only
  // the conv branch's input, and the store agrees after a training forward
  // (the empty branch's forward clone is transient, never stashed).
  EXPECT_EQ(cb.activation_bytes(in), in.numel() * sizeof(float));
  Tensor x = testutil::random_tensor(in, 614);
  Tensor y = cb.forward(x, true);
  ASSERT_EQ(y.shape(), Shape::nchw(1, 5, 4, 4));
  EXPECT_EQ(store.held_bytes(), cb.activation_bytes(in));

  // Gradient routed to the identity slice passes through verbatim; the conv
  // branch receives zeros and contributes zeros.
  Tensor g(y.shape(), 0.0f);
  const std::size_t hw = 16;
  for (std::size_t i = 0; i < 2 * hw; ++i) g[i] = static_cast<float>(i) + 1.0f;
  Tensor gi = cb.backward(g);
  ASSERT_EQ(gi.shape(), in);
  for (std::size_t i = 0; i < 2 * hw; ++i) EXPECT_FLOAT_EQ(gi[i], g[i]);
  EXPECT_EQ(store.held_bytes(), 0u);  // backward drained the stash
}

// --- Inception-V4 ---------------------------------------------------------------

TEST(InceptionV4, BuildsAndTracesAt299) {
  models::ModelConfig cfg;
  cfg.input_hw = 299;
  cfg.num_classes = 1000;
  auto net = models::make_inception_v4(cfg);
  const auto trace = net->shape_trace(Shape::nchw(1, 3, 299, 299));
  EXPECT_EQ(trace.back().second, Shape({1, 1000}));
}

TEST(InceptionV4, MemoryDominatesResNet50) {
  // The paper's §1: Inception-V4 at batch 32 needs > 40 GB. Our conv-input
  // accounting at 299px/batch-32 must land in the tens of GB and exceed
  // ResNet-50 at 224.
  models::ModelConfig cfg;
  cfg.input_hw = 299;
  cfg.num_classes = 1000;
  auto inception = models::make_inception_v4(cfg);
  const std::size_t iv4 =
      inception->conv_activation_bytes(Shape::nchw(32, 3, 299, 299));
  models::ModelConfig rcfg;
  rcfg.input_hw = 224;
  auto r50 = models::make_resnet50(rcfg);
  const std::size_t r50b = r50->conv_activation_bytes(Shape::nchw(32, 3, 224, 224));
  EXPECT_GT(iv4, r50b);
  EXPECT_GT(iv4, 2ull << 30);  // multiple GB of conv activations at batch 32
}

TEST(InceptionV4, SmallScaleForwardBackward) {
  models::ModelConfig cfg;
  cfg.input_hw = 32;
  cfg.num_classes = 5;
  cfg.width_multiplier = 0.125;
  auto net = models::make_inception_v4(cfg);
  Tensor x = testutil::random_tensor(Shape::nchw(2, 3, 32, 32), 610);
  Tensor logits = net->forward(x, true);
  EXPECT_EQ(logits.shape(), Shape({2, 5}));
  Tensor g = net->backward(testutil::random_tensor(logits.shape(), 611, -0.01f, 0.01f));
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(InceptionV4, RegistryLookupWorks) {
  EXPECT_NO_THROW(models::find_model("Inception-V4"));
}

}  // namespace
}  // namespace ebct
