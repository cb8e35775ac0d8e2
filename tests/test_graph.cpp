// Graph IR tests: construction from real networks (edges, shapes,
// topological order), backward-schedule liveness ranks on linear / residual
// / branchy models, shared-stash groups, and the end-to-end acceptance
// criterion — training is byte-identical under put-order and exact-liveness
// paging at every budget and pool size, and liveness spills less.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/adaptive.hpp"
#include "core/codec_registry.hpp"
#include "core/session.hpp"
#include "graph/graph.hpp"
#include "models/model_zoo.hpp"
#include "nn/concat.hpp"
#include "nn/conv2d.hpp"
#include "nn/network.hpp"
#include "nn/residual.hpp"
#include "nn/simple_layers.hpp"
#include "tensor/sched.hpp"
#include "util/test_util.hpp"

namespace ebct {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

// --- Construction on a linear model ------------------------------------------

models::ModelConfig tiny_alexnet_cfg() {
  models::ModelConfig cfg;
  cfg.input_hw = 32;
  cfg.num_classes = 4;
  cfg.width_multiplier = 0.25;
  cfg.seed = 7;
  return cfg;
}

TEST(GraphIr, LinearChainHasEdgesAndShapes) {
  auto net = models::make_alexnet(tiny_alexnet_cfg());
  const Shape in = Shape::nchw(2, 3, 32, 32);
  graph::Graph g = graph::Graph::from_network(*net, in);

  // One node per layer (AlexNet has no containers), chained tensors.
  EXPECT_EQ(g.num_nodes(), net->num_layers());

  // Edges: the input tensor feeds exactly the first layer; every interior
  // tensor has one producer and one consumer.
  EXPECT_EQ(g.tensor(0).consumers.size(), 1u);
  EXPECT_EQ(g.tensor(0).producer, graph::kNoNode);

  // Shape inference rode along every edge: the output is the logits shape,
  // matching what the network actually computes.
  EXPECT_EQ(g.tensor(g.output()).shape, net->shape_trace(in).back().second);
}

TEST(GraphIr, ProducersPrecedeConsumersOnEveryModel) {
  // Node-id order is the forward execution order: every input a node
  // consumes was produced by a node with a smaller id.
  models::ModelConfig cfg;
  cfg.input_hw = 32;
  cfg.num_classes = 4;
  cfg.width_multiplier = 0.125;
  std::vector<std::unique_ptr<nn::Network>> nets;
  nets.push_back(models::make_alexnet(cfg));
  nets.push_back(models::make_vgg16(cfg));
  nets.push_back(models::make_resnet18(cfg));
  nets.push_back(models::make_resnet50(cfg));
  nets.push_back(models::make_inception_v4(cfg));
  for (const auto& net : nets) {
    graph::Graph g = graph::Graph::from_network(*net, Shape::nchw(1, 3, 32, 32));
    for (graph::NodeId id = 0; id < g.num_nodes(); ++id) {
      for (graph::TensorId in : g.node(id).inputs) {
        const graph::NodeId prod = g.tensor(in).producer;
        if (prod == graph::kNoNode) continue;
        EXPECT_LT(prod, id) << net->name() << ": " << g.node(id).name;
      }
    }
  }
}

TEST(GraphIr, LinearBackwardRanksDecreaseAlongForwardOrder) {
  auto net = models::make_alexnet(tiny_alexnet_cfg());
  graph::Graph g = graph::Graph::from_network(*net, Shape::nchw(2, 3, 32, 32));
  const graph::Liveness lv = g.liveness();
  ASSERT_FALSE(lv.empty());

  // The backward pass replays a linear chain in reverse, so along forward
  // (topological) order the backward ranks must strictly decrease.
  std::uint64_t prev = ~std::uint64_t{0};
  std::size_t ranked = 0;
  for (graph::NodeId id = 0; id < g.num_nodes(); ++id) {
    auto it = lv.rank.find(g.node(id).name);
    if (it == lv.rank.end()) continue;
    EXPECT_LT(it->second, prev) << "node " << g.node(id).name;
    prev = it->second;
    ++ranked;
  }
  EXPECT_EQ(ranked, g.num_nodes());
  // A linear model shares no stashed tensor between consumers.
  EXPECT_TRUE(lv.share_group.empty());
}

// --- Residual blocks: the real non-LIFO backward ------------------------------

TEST(GraphIr, ResidualAddJoinsMainAndShortcut) {
  Rng rng(21);
  std::vector<std::unique_ptr<nn::Layer>> main_path;
  main_path.push_back(
      std::make_unique<nn::Conv2d>("r.a", nn::Conv2dSpec{2, 4, 3, 1, 1, false}, rng));
  main_path.push_back(std::make_unique<nn::ReLU>("r.relu"));
  main_path.push_back(
      std::make_unique<nn::Conv2d>("r.b", nn::Conv2dSpec{4, 4, 3, 1, 1, false}, rng));
  std::vector<std::unique_ptr<nn::Layer>> shortcut;
  shortcut.push_back(
      std::make_unique<nn::Conv2d>("r.sc", nn::Conv2dSpec{2, 4, 1, 1, 0, false}, rng));

  nn::Network net("res");
  net.add(std::make_unique<nn::ResidualBlock>("r", std::move(main_path),
                                              std::move(shortcut)));
  graph::Graph g = graph::Graph::from_network(net, Shape::nchw(1, 2, 8, 8));

  const graph::Node* add = g.find_node("r.add");
  ASSERT_NE(add, nullptr);
  EXPECT_EQ(add->op, "add");
  EXPECT_EQ(add->layer, nullptr);
  ASSERT_EQ(add->inputs.size(), 2u);
  // Both arms trace back to the block input through their own chains.
  EXPECT_EQ(g.tensor(add->inputs[0]).producer,
            static_cast<graph::NodeId>(g.find_node("r.b") - g.nodes().data()));
  EXPECT_EQ(g.tensor(add->inputs[1]).producer,
            static_cast<graph::NodeId>(g.find_node("r.sc") - g.nodes().data()));
}

TEST(GraphIr, ResidualRanksMirrorBackwardExecutionNotForwardOrder) {
  Rng rng(22);
  std::vector<std::unique_ptr<nn::Layer>> main_path;
  main_path.push_back(
      std::make_unique<nn::Conv2d>("r.a", nn::Conv2dSpec{2, 4, 3, 1, 1, false}, rng));
  main_path.push_back(
      std::make_unique<nn::Conv2d>("r.b", nn::Conv2dSpec{4, 4, 3, 1, 1, false}, rng));
  std::vector<std::unique_ptr<nn::Layer>> shortcut;
  shortcut.push_back(
      std::make_unique<nn::Conv2d>("r.sc", nn::Conv2dSpec{2, 4, 1, 1, 0, false}, rng));
  nn::Network net("res");
  net.add(std::make_unique<nn::ResidualBlock>("r", std::move(main_path),
                                              std::move(shortcut)));
  const graph::Liveness lv =
      graph::Graph::from_network(net, Shape::nchw(1, 2, 8, 8)).liveness();

  // ResidualBlock::backward runs out_relu, then main reversed, then the
  // shortcut — so the shortcut conv, although it executes *before* the
  // block output in forward order, is consumed *last*. This is exactly the
  // case put-order eviction gets wrong and ranks capture.
  ASSERT_TRUE(lv.rank.count("r.a"));
  ASSERT_TRUE(lv.rank.count("r.b"));
  ASSERT_TRUE(lv.rank.count("r.sc"));
  EXPECT_GT(lv.rank.at("r.sc"), lv.rank.at("r.a"));
  EXPECT_GT(lv.rank.at("r.a"), lv.rank.at("r.b"));
}

// --- Concat branches: shared-stash groups -------------------------------------

std::unique_ptr<nn::Network> two_head_concat(Rng& rng) {
  std::vector<std::vector<std::unique_ptr<nn::Layer>>> branches;
  {
    std::vector<std::unique_ptr<nn::Layer>> b;
    b.push_back(
        std::make_unique<nn::Conv2d>("cb.b0", nn::Conv2dSpec{2, 3, 3, 1, 1, false}, rng));
    branches.push_back(std::move(b));
  }
  {
    std::vector<std::unique_ptr<nn::Layer>> b;
    b.push_back(
        std::make_unique<nn::Conv2d>("cb.b1", nn::Conv2dSpec{2, 5, 1, 1, 0, false}, rng));
    branches.push_back(std::move(b));
  }
  auto net = std::make_unique<nn::Network>("concat");
  net->add(std::make_unique<nn::ConcatBranches>("cb", std::move(branches)));
  return net;
}

TEST(GraphIr, ConcatBranchHeadsFormOneShareGroup) {
  Rng rng(23);
  auto net = two_head_concat(rng);
  const graph::Liveness lv =
      graph::Graph::from_network(*net, Shape::nchw(1, 2, 6, 6)).liveness();

  // Both branch-head convs stash a clone of the same produced tensor; the
  // edges expose them as co-consumers and liveness groups them.
  ASSERT_TRUE(lv.share_group.count("cb.b0"));
  ASSERT_TRUE(lv.share_group.count("cb.b1"));
  EXPECT_EQ(lv.share_group.at("cb.b0"), lv.share_group.at("cb.b1"));
}

TEST(GraphIr, InceptionEveryConvRankedAndGroupsFound) {
  models::ModelConfig cfg;
  cfg.input_hw = 32;
  cfg.num_classes = 5;
  cfg.width_multiplier = 0.125;
  auto net = models::make_inception_v4(cfg);
  graph::Graph g = graph::Graph::from_network(*net, Shape::nchw(1, 3, 32, 32));

  const graph::Liveness lv = g.liveness();
  std::size_t convs = 0;
  std::set<std::uint32_t> groups;
  for (const graph::Node& n : g.nodes()) {
    if (!n.stashes_input) continue;
    ++convs;
    EXPECT_TRUE(lv.rank.count(n.name)) << n.name;
  }
  for (const auto& [name, gid] : lv.share_group) groups.insert(gid);
  EXPECT_GT(convs, 20u);  // Inception-V4 is conv-heavy even at 1/8 width
  // Every Inception block's branch heads share their input stash.
  EXPECT_GT(groups.size(), 5u);
  for (const auto& [name, gid] : lv.share_group)
    EXPECT_TRUE(lv.rank.count(name)) << name;
}

// --- Visit regression (the traversal bugfix) ----------------------------------

TEST(GraphIr, VisitCoversContainersAndLeavesOnInception) {
  models::ModelConfig cfg;
  cfg.input_hw = 32;
  cfg.num_classes = 5;
  cfg.width_multiplier = 0.125;
  auto net = models::make_inception_v4(cfg);

  std::size_t visited = 0;
  std::size_t containers = 0;
  std::set<const nn::Layer*> unique;
  net->visit([&](nn::Layer& l) {
    ++visited;
    unique.insert(&l);
    if (dynamic_cast<nn::ConcatBranches*>(&l) != nullptr) ++containers;
  });
  // The old traversal recursed into children but skipped the container
  // nodes themselves; post-fix every layer is visited exactly once,
  // containers included.
  EXPECT_EQ(visited, unique.size());
  EXPECT_GT(containers, 0u);
  EXPECT_GT(visited, net->num_layers());  // children beyond the top chain
}

// --- End-to-end: byte-identical training, put-order vs liveness paging ------

struct PagedRun {
  std::vector<double> losses;
  memory::PagerCounters counters;
};

/// Inception trained directly over a PagedStore with the default codec and
/// the adaptive scheme, as a session builds them. Without set_liveness()
/// the pager evicts in put order; with it, furthest-next-use plus
/// shared-stash dedup. Prefetch is pinned off so the counters are a pure
/// function of the pager call sequence.
PagedRun train_inception(std::size_t budget, bool liveness, int pool_threads,
                         std::size_t iterations = 4) {
  tensor::sched::set_num_threads(pool_threads);
  models::ModelConfig mcfg;
  mcfg.input_hw = 16;
  mcfg.num_classes = 4;
  mcfg.width_multiplier = 0.125;
  mcfg.seed = 11;
  auto net = models::make_inception_v4(mcfg);

  data::SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.image_hw = 16;
  dspec.train_per_class = 16;
  dspec.seed = 777;
  data::SyntheticImageDataset ds(dspec);
  data::DataLoader loader(ds, 4, true, true, 31);

  core::FrameworkConfig fw;
  fw.active_factor_w = 3;
  const auto codec = core::CodecRegistry::instance().create(fw.codec, fw);
  memory::PagerConfig pc;
  pc.budget_bytes = budget;
  pc.prefetch_depth = 0;
  memory::PagedStore store(pc, codec);
  core::AdaptiveScheme scheme(fw, codec.get());
  net->set_store(&store);
  nn::Sgd sgd(core::SessionConfig{}.sgd);
  nn::SoftmaxCrossEntropy loss;

  PagedRun r;
  Tensor images;
  std::vector<std::int32_t> labels;
  for (std::size_t step = 0; step < iterations; ++step) {
    loader.next(images, labels);
    if (liveness && step == 0) {
      store.set_liveness(graph::Graph::from_network(*net, images.shape()).liveness());
    }
    const nn::LossResult lr = loss.compute(net->forward(images, true), labels);
    store.prepare_backward();
    net->backward(lr.grad_logits);
    auto params = net->params();
    sgd.step(params, 0.05);
    if (scheme.should_update(step)) scheme.update(*net, loader.batch_size());
    r.losses.push_back(lr.loss);
  }
  r.counters = store.pager().counters();
  return r;
}

TEST(GraphLiveness, LivenessPagingMatchesPutOrderAndSpillsLess) {
  // The paging policy (and the dedup aliasing) moves bytes between tiers;
  // it must never change a single reconstructed value. Losses are compared
  // bitwise between put-order and exact-liveness paging across the budget
  // x pool matrix, and under a budget liveness must spill fewer bytes.
  const int initial_pool = tensor::sched::num_threads();
  const int max_pool = std::min(4, initial_pool);

  const PagedRun ref = train_inception(/*budget=*/0, /*liveness=*/false, /*pool=*/1);
  ASSERT_FALSE(ref.losses.empty());
  const std::size_t half = ref.counters.peak_resident_bytes / 2;
  const std::size_t quarter = ref.counters.peak_resident_bytes / 4;
  ASSERT_GT(quarter, 0u);

  for (const std::size_t budget : {std::size_t{0}, half, quarter}) {
    for (const int pool : {1, max_pool}) {
      const std::string point =
          "budget " + std::to_string(budget) + " pool " + std::to_string(pool);
      const PagedRun put_order = train_inception(budget, false, pool);
      const PagedRun exact = train_inception(budget, true, pool);
      EXPECT_EQ(put_order.losses, ref.losses) << point << " put-order";
      EXPECT_EQ(exact.losses, ref.losses) << point << " liveness";
      // Inception branch heads consume one produced tensor each block: with
      // liveness attached, sibling stashes alias instead of encoding again
      // (sz certifies layer-invariant encoding under uniform bounds).
      EXPECT_EQ(put_order.counters.dedup_pages, 0u) << point;
      EXPECT_GT(exact.counters.dedup_pages, 0u) << point;
      EXPECT_GT(exact.counters.dedup_saved_bytes, 0u) << point;
      if (budget == 0) continue;
      EXPECT_LE(put_order.counters.peak_resident_bytes, budget) << point;
      EXPECT_LE(exact.counters.peak_resident_bytes, budget) << point;
      EXPECT_GT(put_order.counters.spill_write_bytes, 0u) << point;
      // With dedup engaged and put-order spilling, liveness spills strictly
      // fewer bytes.
      EXPECT_LT(exact.counters.spill_write_bytes, put_order.counters.spill_write_bytes)
          << point;
    }
  }
  tensor::sched::set_num_threads(initial_pool);
}

TEST(GraphLiveness, SessionExposesGraphAfterFirstIteration) {
  Rng rng(24);
  models::ModelConfig mcfg;
  mcfg.input_hw = 16;
  mcfg.num_classes = 4;
  mcfg.width_multiplier = 0.25;
  auto net = models::make_resnet18(mcfg);
  data::SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.image_hw = 16;
  dspec.train_per_class = 16;
  data::SyntheticImageDataset ds(dspec);
  data::DataLoader loader(ds, 4, true, true);
  core::SessionConfig cfg;
  core::TrainingSession session(*net, loader, cfg);
  EXPECT_EQ(session.graph(), nullptr);  // built lazily: needs the input shape
  session.run(1);
  ASSERT_NE(session.graph(), nullptr);
  EXPECT_TRUE(session.paged_store()->pager().has_liveness());
}

}  // namespace
}  // namespace ebct
