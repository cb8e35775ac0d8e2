#include "graph/graph.hpp"

#include <stdexcept>
#include <unordered_map>

#include "nn/network.hpp"

namespace ebct::graph {

using tensor::Shape;

TensorId Graph::add_input(std::string name, const Shape& shape) {
  if (has_input_) throw std::logic_error("Graph: input already registered");
  has_input_ = true;
  TensorInfo t;
  t.name = std::move(name);
  t.shape = shape;
  tensors_.push_back(std::move(t));
  return static_cast<TensorId>(tensors_.size() - 1);
}

TensorId Graph::add_node(std::string name, std::string op, const nn::Layer* layer,
                         std::vector<TensorId> inputs, const Shape& out_shape) {
  const NodeId nid = static_cast<NodeId>(nodes_.size());
  for (TensorId in : inputs) {
    if (in >= tensors_.size())
      throw std::logic_error("Graph: node '" + name + "' consumes unknown tensor");
    tensors_[in].consumers.push_back(nid);
  }
  Node n;
  n.name = std::move(name);
  n.op = std::move(op);
  n.layer = layer;
  n.inputs = std::move(inputs);
  n.stashes_input = layer != nullptr && layer->uses_activation_store();

  TensorInfo out;
  out.name = n.name + ".out";
  out.shape = out_shape;
  out.producer = nid;
  tensors_.push_back(std::move(out));
  const TensorId tid = static_cast<TensorId>(tensors_.size() - 1);
  n.outputs.push_back(tid);
  nodes_.push_back(std::move(n));
  output_ = tid;  // provisional; the last appended node produces the output
  return tid;
}

TensorId Graph::add_layer_node(const nn::Layer& layer, std::string op,
                               std::vector<TensorId> inputs) {
  if (inputs.empty())
    throw std::logic_error("Graph: layer node '" + layer.name() + "' needs an input");
  const Shape out = layer.output_shape(tensor(inputs.front()).shape);
  return add_node(layer.name(), std::move(op), &layer, std::move(inputs), out);
}

void Graph::set_output(TensorId t) {
  if (t >= tensors_.size()) throw std::logic_error("Graph: unknown output tensor");
  output_ = t;
}

Graph Graph::from_network(const nn::Network& net, const Shape& input_shape) {
  Graph g;
  TensorId t = g.add_input("input", input_shape);
  t = net.build_graph(g, t);
  g.set_output(t);

  // Capture the real backward replay order so liveness ranks mirror what
  // backward() does (main path before shortcut in a ResidualBlock, branches
  // reversed in a ConcatBranches) rather than an idealised reverse
  // topological order.
  std::vector<const nn::Layer*> schedule;
  net.backward_schedule(schedule);
  std::unordered_map<const nn::Layer*, std::int64_t> pos;
  for (std::size_t i = 0; i < schedule.size(); ++i)
    pos.emplace(schedule[i], static_cast<std::int64_t>(i));
  for (Node& n : g.nodes_) {
    if (n.layer == nullptr) continue;
    auto it = pos.find(n.layer);
    if (it != pos.end()) n.backward_pos = it->second;
  }
  return g;
}

const Node* Graph::find_node(const std::string& name) const {
  for (const Node& n : nodes_)
    if (n.name == name) return &n;
  return nullptr;
}

Liveness Graph::liveness() const {
  Liveness lv;
  for (const Node& n : nodes_) {
    if (n.layer == nullptr || n.backward_pos < 0) continue;
    lv.rank[n.name] = static_cast<std::uint64_t>(n.backward_pos);
  }
  // Shared-producer groups: tensors stashed (lossily) by two or more
  // consumer nodes. Each such consumer stashes a clone of the same bytes,
  // so the pager may back the group with one physical payload.
  std::uint32_t next_group = 0;
  for (const TensorInfo& t : tensors_) {
    std::vector<const Node*> stashers;
    for (NodeId c : t.consumers) {
      const Node& n = nodes_[c];
      if (n.stashes_input && !n.inputs.empty() && &tensors_[n.inputs.front()] == &t) {
        stashers.push_back(&n);
      }
    }
    if (stashers.size() < 2) continue;
    for (const Node* n : stashers) lv.share_group[n->name] = next_group;
    ++next_group;
  }
  return lv;
}

}  // namespace ebct::graph
