#include "graph/executor.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>
#include <utility>

#include "nn/network.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace ebct::graph {

using tensor::Tensor;

namespace {

/// The node task currently executing on this thread (nesting happens when
/// the scheduler inlines one node task inside another's helping join — the
/// scope saves and restores). try_stash consults it to decide whether a
/// stash belongs to the executor or should pass through to the pager (a
/// sequential evaluate() forward has no ticket and passes through).
struct TicketTls {
  const void* owner = nullptr;
  std::size_t ticket = 0;
};
thread_local TicketTls t_ticket;

class ScopedTicket {
 public:
  ScopedTicket(const void* owner, std::size_t ticket) : saved_(t_ticket) {
    t_ticket.owner = owner;
    t_ticket.ticket = ticket;
  }
  ~ScopedTicket() { t_ticket = saved_; }

 private:
  TicketTls saved_;
};

constexpr nn::StashHandle kBit = memory::kInterceptHandleBit;
constexpr unsigned kIdxBits = 16;

nn::StashHandle make_virtual(std::size_t ticket, std::size_t idx) {
  return kBit | (static_cast<nn::StashHandle>(ticket) << kIdxBits) |
         static_cast<nn::StashHandle>(idx);
}

}  // namespace

GraphExecutor::GraphExecutor(const Graph& g, nn::Network& net, memory::PagedStore& store)
    : graph_(g), store_(store) {
  build_plan(net);
}

GraphExecutor::~GraphExecutor() {
  if (store_.interceptor() == this) store_.set_interceptor(nullptr);
}

void GraphExecutor::fail(std::string reason) {
  if (supported_) {
    supported_ = false;
    reason_ = std::move(reason);
  }
}

// ---------------------------------------------------------------------------
// Planning: validate the graph's structure and precompute everything the
// dispatch loops need (non-const layer pointers, join specs, fan-ins).
// ---------------------------------------------------------------------------

void GraphExecutor::build_plan(nn::Network& net) {
  const auto& nodes = graph_.nodes();
  const auto& tensors = graph_.tensors();
  num_nodes_ = nodes.size();
  if (num_nodes_ == 0) return fail("empty graph");

  // const Layer* (graph) -> Layer* (network): visit covers every layer in
  // the tree exactly once, containers and synthetic members included.
  std::map<const nn::Layer*, nn::Layer*> lmap;
  net.visit([&lmap](nn::Layer& l) { lmap[&l] = &l; });

  plan_.resize(num_nodes_);
  for (std::size_t n = 0; n < num_nodes_; ++n) {
    const Node& node = nodes[n];
    NodePlan& p = plan_[n];
    p.backward_pos = node.backward_pos;
    if (node.outputs.size() != 1) return fail("node '" + node.name + "': multi-output");
    if (node.op == "add") {
      p.kind = Kind::kAdd;
      if (node.inputs.size() != 2) return fail("add node '" + node.name + "': arity");
    } else if (node.op == "concat") {
      p.kind = Kind::kConcat;
      if (node.inputs.empty()) return fail("concat node '" + node.name + "': no inputs");
    } else {
      p.kind = Kind::kLeaf;
      if (node.inputs.size() != 1)
        return fail("node '" + node.name + "': unsupported fan-in");
      auto it = node.layer ? lmap.find(node.layer) : lmap.end();
      if (it == lmap.end()) return fail("node '" + node.name + "': layer not in network");
      p.layer = it->second;
    }
  }

  // Exactly one graph input (no producer); every other tensor must be
  // consumed somewhere or be the output — an unconsumed tensor would never
  // receive a gradient and the backward dispatch would stall.
  output_tid_ = graph_.output();
  bool have_input = false;
  for (TensorId t = 0; t < tensors.size(); ++t) {
    if (tensors[t].producer == kNoNode) {
      if (have_input) return fail("multiple graph inputs");
      have_input = true;
      input_tid_ = t;
    }
    if (tensors[t].consumers.empty() && t != output_tid_)
      return fail("tensor '" + tensors[t].name + "': unconsumed");
  }
  if (!have_input) return fail("no graph input");
  input_shape_ = tensors[input_tid_].shape;

  // Multi-consumer tensors: every occurrence must chain (through
  // single-consumer tensors) into a distinct input slot of one add/concat
  // join, which is where the sequential containers accumulate the gradient.
  // Descending id order matches joins innermost-first: tensor ids follow
  // production order, so a nested split's shared tensor has a higher id
  // than the enclosing block's input — by the time the outer tensor's walk
  // crosses the nested fork, that fork's own join is known and the walk
  // can jump through it (the inner join's combined gradient flows to its
  // producer, whose chain continues toward the outer join).
  join_of_.assign(tensors.size(), -1);
  for (TensorId t = static_cast<TensorId>(tensors.size()); t-- > 0;) {
    const auto& consumers = tensors[t].consumers;
    if (consumers.size() <= 1) continue;

    const int jidx = static_cast<int>(joins_.size());
    JoinSpec& spec = joins_.emplace_back();
    spec.tensor = t;
    std::vector<bool> claimed;
    auto claim_slot = [&](NodeId j, TensorId via) -> int {
      const Node& jn = nodes[j];
      if (spec.join_node == kNoNode) {
        if (jn.op != "add" && jn.op != "concat") return -1;
        spec.join_node = j;
        spec.is_add = jn.op == "add";
        claimed.assign(jn.inputs.size(), false);
      } else if (spec.join_node != j) {
        return -1;  // occurrences split across two joins: unsupported
      }
      for (std::size_t s = 0; s < jn.inputs.size(); ++s) {
        if (!claimed[s] && jn.inputs[s] == via) {
          claimed[s] = true;
          return static_cast<int>(s);
        }
      }
      return -1;
    };

    for (NodeId c : consumers) {
      // Direct consumption by the join itself (empty shortcut / branch).
      const Node& cn = nodes[c];
      const bool c_is_join = cn.op == "add" || cn.op == "concat";
      if (c_is_join) {
        if (claim_slot(c, t) < 0)
          return fail("tensor '" + tensors[t].name + "': unsupported join fan-out");
        continue;
      }
      // Chain head: walk down through single-consumer tensors to the join.
      NodeId cur = c;
      TensorId u = nodes[cur].outputs[0];
      for (;;) {
        if (tensors[u].consumers.size() != 1) {
          // The chain re-forks into a nested split; continue from that
          // split's own join, whose output resumes the single chain.
          const int ju = join_of_[u];
          if (ju < 0)
            return fail("tensor '" + tensors[t].name + "': unmatched branch re-fork");
          u = nodes[joins_[static_cast<std::size_t>(ju)].join_node].outputs[0];
          continue;
        }
        const NodeId next = tensors[u].consumers[0];
        const Node& nn_ = nodes[next];
        if (nn_.op == "add" || nn_.op == "concat") {
          const int slot = claim_slot(next, u);
          if (slot < 0)
            return fail("tensor '" + tensors[t].name + "': unsupported join fan-out");
          plan_[c].join = jidx;
          plan_[c].join_slot = slot;
          break;
        }
        cur = next;
        u = nodes[cur].outputs[0];
      }
    }
    if (spec.join_node == kNoNode ||
        std::find(claimed.begin(), claimed.end(), false) != claimed.end())
      return fail("tensor '" + tensors[t].name + "': join slots unaccounted");
    if (nodes[spec.join_node].inputs.size() != consumers.size())
      return fail("tensor '" + tensors[t].name + "': join arity mismatch");
    spec.contrib.resize(nodes[spec.join_node].inputs.size());
    join_of_[t] = jidx;
  }

  values_.resize(tensors.size());
  grads_.resize(tensors.size());
  remaining_ = std::make_unique<std::atomic<int>[]>(tensors.size());
  fanin_ = std::make_unique<std::atomic<int>[]>(num_nodes_);
  completed_ = std::make_unique<std::atomic<bool>[]>(num_nodes_);
  deposits_.resize(num_nodes_);
}

// ---------------------------------------------------------------------------
// Forward.
// ---------------------------------------------------------------------------

void GraphExecutor::reset_forward_state() {
  const auto& tensors = graph_.tensors();
  for (TensorId t = 0; t < tensors.size(); ++t) {
    values_[t] = Tensor();
    remaining_[t].store(static_cast<int>(tensors[t].consumers.size()),
                        std::memory_order_relaxed);
  }
  for (std::size_t n = 0; n < num_nodes_; ++n) {
    fanin_[n].store(static_cast<int>(graph_.node(static_cast<NodeId>(n)).inputs.size()),
                    std::memory_order_relaxed);
    completed_[n].store(false, std::memory_order_relaxed);
    deposits_[n].clear();
  }
  forward_done_.store(0, std::memory_order_relaxed);
  error_flag_.store(false, std::memory_order_relaxed);
  first_error_ = nullptr;
  futures_.clear();
}

void GraphExecutor::release_value(TensorId t) {
  if (remaining_[t].fetch_sub(1, std::memory_order_acq_rel) == 1) values_[t] = Tensor();
}

Tensor GraphExecutor::take_value(TensorId t) {
  // Sole remaining consumer: steal the buffer. Otherwise clone — a racing
  // co-consumer may still be reading, and the last release frees it.
  if (remaining_[t].load(std::memory_order_acquire) == 1) {
    Tensor out = std::move(values_[t]);
    remaining_[t].store(0, std::memory_order_release);
    return out;
  }
  Tensor out = values_[t].clone();
  release_value(t);
  return out;
}

void GraphExecutor::on_tensor_available(TensorId t, std::vector<std::size_t>& ready) {
  for (NodeId c : graph_.tensor(t).consumers) {
    if (fanin_[c].fetch_sub(1, std::memory_order_acq_rel) == 1)
      ready.push_back(static_cast<std::size_t>(c));
  }
}

void GraphExecutor::record_error() {
  std::lock_guard<std::mutex> lk(error_mu_);
  if (!first_error_) first_error_ = std::current_exception();
  error_flag_.store(true, std::memory_order_release);
}

void GraphExecutor::note_burst(std::size_t ready) {
  // The burst size is decided by graph structure alone (how many consumers
  // one completion unblocked), so the metric is pool-size independent.
  std::size_t prev = max_parallel_dispatch_.load(std::memory_order_relaxed);
  while (ready > prev && !max_parallel_dispatch_.compare_exchange_weak(
                             prev, ready, std::memory_order_relaxed)) {
  }
}

void GraphExecutor::dispatch(const std::vector<std::size_t>& ready) {
  if (error_flag_.load(std::memory_order_acquire)) return;
  for (std::size_t n : ready) {
    auto fut = tensor::sched::async([this, n] { run_node_forward(n); });
    std::lock_guard<std::mutex> lk(futures_mu_);
    futures_.push_back(std::move(fut));
  }
}

void GraphExecutor::join_dispatched() {
  // Never wait while holding futures_mu_: a task can still be inside
  // dispatch()/satisfy_backward() parking its children's futures when the
  // driver reaches this join (the done counters and the error flag are both
  // observable before dispatch returns), and wait() help-executes queued
  // tasks, which could re-enter dispatch on this very thread. Swap the
  // vector out, wait outside the lock, and loop — a joined batch may have
  // pushed a new generation of futures while we waited. Task bodies catch
  // their own exceptions, so wait() never throws here.
  for (;;) {
    std::vector<tensor::sched::Future> batch;
    {
      std::lock_guard<std::mutex> lk(futures_mu_);
      if (futures_.empty()) return;
      batch.swap(futures_);
    }
    for (auto& f : batch) f.wait();
  }
}

Tensor GraphExecutor::forward_kernel(std::size_t n) {
  const Node& node = graph_.node(static_cast<NodeId>(n));
  const NodePlan& p = plan_[n];
  switch (p.kind) {
    case Kind::kLeaf: {
      Tensor out = p.layer->forward(peek_value(node.inputs[0]), train_);
      release_value(node.inputs[0]);
      return out;
    }
    case Kind::kAdd: {
      // Mirrors ResidualBlock::forward: main-path output += shortcut.
      Tensor out = take_value(node.inputs[0]);
      tensor::axpy(1.0f, peek_value(node.inputs[1]).span(), out.span());
      release_value(node.inputs[1]);
      return out;
    }
    case Kind::kConcat: {
      // Mirrors ConcatBranches::forward's channel merge (pure memcpy, so
      // doing it here instead of in the layer is byte-identical).
      const tensor::Shape& os = graph_.tensor(node.outputs[0]).shape;
      Tensor out(os);
      const std::size_t bn = os.n(), hw = os.h() * os.w();
      std::size_t c_off = 0;
      for (TensorId in : node.inputs) {
        const Tensor& y = peek_value(in);
        const std::size_t c = y.shape().c();
        for (std::size_t s = 0; s < bn; ++s) {
          std::memcpy(out.data() + (s * os.c() + c_off) * hw, y.data() + s * c * hw,
                      c * hw * sizeof(float));
        }
        c_off += c;
        release_value(in);
      }
      return out;
    }
  }
  throw std::logic_error("GraphExecutor: unreachable kind");
}

void GraphExecutor::run_node_forward(std::size_t n) {
  obs::trace::Span span("exec.node_fwd", obs::trace::Cat::kExec);
  const Node& node = graph_.node(static_cast<NodeId>(n));
  try {
    ScopedTicket ticket(this, n);
    Tensor out = forward_kernel(n);
    values_[node.outputs[0]] = std::move(out);
  } catch (...) {
    record_error();
  }
  completed_[n].store(true, std::memory_order_release);
  if (!error_flag_.load(std::memory_order_acquire)) {
    std::vector<std::size_t> ready;
    on_tensor_available(node.outputs[0], ready);
    note_burst(ready.size());
    dispatch(ready);
  }
  // Counted last, after dispatch (mirroring backward_done_): the driver's
  // completion predicate must not fire while this task still has children
  // to park under futures_mu_.
  forward_done_.fetch_add(1, std::memory_order_acq_rel);
}

Tensor GraphExecutor::forward(const Tensor& input, bool train) {
  if (!supported_) throw std::logic_error("GraphExecutor::forward: unsupported plan");
  reset_forward_state();
  train_ = train;

  values_[input_tid_] = input.clone();
  std::vector<std::size_t> ready;
  on_tensor_available(input_tid_, ready);
  note_burst(ready.size());
  dispatch(ready);

  {
    // The driver helps the pool and, whenever the next node in graph order
    // has completed, commits deposits up to the first node still running.
    obs::trace::Span span("exec.join_fwd", obs::trace::Cat::kExec);
    std::size_t next = 0;
    for (;;) {
      try {
        next = commit_completed(next);
      } catch (...) {
        record_error();
      }
      if (error_flag_.load(std::memory_order_acquire)) break;
      if (next == num_nodes_ && forward_done_.load(std::memory_order_acquire) == num_nodes_)
        break;
      tensor::sched::help_while([this, next] {
        return error_flag_.load(std::memory_order_acquire) ||
               forward_done_.load(std::memory_order_acquire) == num_nodes_ ||
               (next < num_nodes_ && completed_[next].load(std::memory_order_acquire));
      });
    }
    // Join every dispatched task before touching shared state.
    join_dispatched();
  }
  if (error_flag_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(error_mu_);
    std::rethrow_exception(first_error_);
  }
  return std::move(values_[output_tid_]);
}

// ---------------------------------------------------------------------------
// Deposits: node tasks park their stashes; the driver commits them to the
// pager strictly in graph (== sequential stash) order.
// ---------------------------------------------------------------------------

bool GraphExecutor::try_stash(const std::string& layer, Tensor& act, bool exact,
                              nn::StashHandle& out) {
  if (t_ticket.owner != this) return false;
  const std::size_t ticket = t_ticket.ticket;
  auto& deps = deposits_[ticket];
  auto& d = deps.emplace_back();
  d.layer = layer;
  d.value = std::move(act);
  d.exact = exact;
  out = make_virtual(ticket, deps.size() - 1);
  return true;
}

std::size_t GraphExecutor::commit_completed(std::size_t next) {
  for (; next < num_nodes_ && completed_[next].load(std::memory_order_acquire); ++next) {
    if (deposits_[next].empty()) continue;
    obs::trace::Span span("exec.commit", obs::trace::Cat::kExec);
    for (auto& d : deposits_[next]) {
      d.real = store_.commit_stash(d.layer, std::move(d.value), d.exact);
    }
  }
  return next;
}

// ---------------------------------------------------------------------------
// Backward.
// ---------------------------------------------------------------------------

void GraphExecutor::reset_backward_state() {
  for (auto& g : grads_) g = Tensor();
  for (auto& j : joins_) {
    for (auto& c : j.contrib) c = Tensor();
    j.arrived.store(0, std::memory_order_relaxed);
  }
  input_grad_ = Tensor();
  backward_done_.store(0, std::memory_order_relaxed);
  error_flag_.store(false, std::memory_order_relaxed);
  first_error_ = nullptr;
  futures_.clear();

  // Staging order: stash-holding nodes by sequential backward position.
  // Every node waits for its gradient; stashing nodes also for staging.
  pump_order_.clear();
  for (std::size_t n = 0; n < num_nodes_; ++n) {
    const bool stashes = !deposits_[n].empty();
    if (stashes) pump_order_.push_back(n);
    fanin_[n].store(stashes ? 2 : 1, std::memory_order_relaxed);
  }
  std::sort(pump_order_.begin(), pump_order_.end(), [this](std::size_t a, std::size_t b) {
    return plan_[a].backward_pos < plan_[b].backward_pos;
  });
  staged_unconsumed_.store(0, std::memory_order_relaxed);
}

void GraphExecutor::stage(std::size_t n) {
  // Every layer retrieves its stashes in reverse deposit order (LRN: scale,
  // then input), so replaying the drops that way, node by node in backward
  // order, is exactly the sequential drop sequence — which is what keeps
  // the pager counters bitwise identical.
  obs::trace::Span span("exec.pump_stage", obs::trace::Cat::kExec);
  auto& deps = deposits_[n];
  for (auto d = deps.rbegin(); d != deps.rend(); ++d) {
    d->staged_value = store_.direct_retrieve(d->real);
    d->staged = true;
    staged_unconsumed_.fetch_add(1, std::memory_order_relaxed);
  }
  satisfy_backward(n);
}

Tensor GraphExecutor::retrieve(nn::StashHandle handle, bool exact) {
  (void)exact;
  const std::size_t ticket = static_cast<std::size_t>((handle & ~kBit) >> kIdxBits);
  const std::size_t idx = static_cast<std::size_t>(handle & ((1u << kIdxBits) - 1));
  auto& deps = deposits_[ticket];
  Deposit& d = deps[idx];
  if (!d.staged) throw std::logic_error("GraphExecutor::retrieve: value was not staged");
  // stage() assumed the layer retrieves in reverse deposit order; a layer
  // that does not would silently reorder the pager's drop sequence.
  for (std::size_t k = idx + 1; k < deps.size(); ++k) {
    if (deps[k].staged)
      throw std::logic_error("GraphExecutor::retrieve: not in reverse deposit order");
  }
  d.staged = false;
  staged_unconsumed_.fetch_sub(1, std::memory_order_acq_rel);
  return std::move(d.staged_value);
}

void GraphExecutor::satisfy_backward(std::size_t n) {
  if (fanin_[n].fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  if (error_flag_.load(std::memory_order_acquire)) return;
  auto fut = tensor::sched::async([this, n] { run_node_backward(n); });
  std::lock_guard<std::mutex> lk(futures_mu_);
  futures_.push_back(std::move(fut));
}

void GraphExecutor::deliver_tensor(TensorId t, Tensor&& g) {
  const TensorInfo& info = graph_.tensor(t);
  if (info.producer == kNoNode) {
    input_grad_ = std::move(g);
    return;
  }
  grads_[t] = std::move(g);
  satisfy_backward(static_cast<std::size_t>(info.producer));
}

void GraphExecutor::contribute(int join, std::size_t slot, Tensor&& g) {
  JoinSpec& j = joins_[static_cast<std::size_t>(join)];
  j.contrib[slot] = std::move(g);
  const std::size_t slots = j.contrib.size();
  if (j.arrived.fetch_add(1, std::memory_order_acq_rel) + 1 != slots) return;
  // Last arriver combines, in the exact sequential order:
  //  - residual add: main-path grad is the base, shortcut grad axpy'd in
  //    (ResidualBlock::backward's g_main += g_sc);
  //  - concat: zero-init, branches accumulated in reverse branch order
  //    (ConcatBranches::backward's reverse loop into grad_input).
  Tensor combined;
  if (j.is_add) {
    combined = std::move(j.contrib[0]);
    for (std::size_t s = 1; s < slots; ++s) {
      tensor::axpy(1.0f, j.contrib[s].span(), combined.span());
      j.contrib[s] = Tensor();
    }
  } else {
    combined = Tensor(graph_.tensor(j.tensor).shape, 0.0f);
    for (std::size_t s = slots; s > 0; --s) {
      tensor::axpy(1.0f, j.contrib[s - 1].span(), combined.span());
      j.contrib[s - 1] = Tensor();
    }
  }
  deliver_tensor(j.tensor, std::move(combined));
}

void GraphExecutor::deliver_slot(std::size_t join_node, std::size_t slot, Tensor&& g) {
  const Node& jn = graph_.node(static_cast<NodeId>(join_node));
  const TensorId u = jn.inputs[slot];
  const int j = join_of_[u];
  if (j >= 0 && joins_[static_cast<std::size_t>(j)].join_node ==
                    static_cast<NodeId>(join_node)) {
    contribute(j, slot, std::move(g));  // the join consumes the shared tensor directly
    return;
  }
  deliver_tensor(u, std::move(g));
}

void GraphExecutor::run_node_backward(std::size_t n) {
  obs::trace::Span span("exec.node_bwd", obs::trace::Cat::kExec);
  const Node& node = graph_.node(static_cast<NodeId>(n));
  const NodePlan& p = plan_[n];
  try {
    Tensor g = std::move(grads_[node.outputs[0]]);
    switch (p.kind) {
      case Kind::kLeaf: {
        Tensor gin = p.layer->backward(g);
        if (p.join >= 0) {
          contribute(p.join, static_cast<std::size_t>(p.join_slot), std::move(gin));
        } else {
          deliver_tensor(node.inputs[0], std::move(gin));
        }
        break;
      }
      case Kind::kAdd: {
        // The add distributes the gradient to both paths unchanged; clone
        // for the main path, move to the shortcut — exactly the sequential
        // g_main = g.clone() / g_sc = move(g).
        Tensor g_main = g.clone();
        deliver_slot(n, 0, std::move(g_main));
        deliver_slot(n, 1, std::move(g));
        break;
      }
      case Kind::kConcat: {
        // Slice first (as the sequential path does), then hand the slices
        // to their branches in reverse branch order, the order in which
        // ConcatBranches::backward visits them.
        const tensor::Shape& os = g.shape();
        const std::size_t bn = os.n(), hw = os.h() * os.w();
        std::vector<Tensor> slices(node.inputs.size());
        std::size_t c_off = 0;
        for (std::size_t b = 0; b < node.inputs.size(); ++b) {
          const std::size_t c = graph_.tensor(node.inputs[b]).shape.c();
          Tensor slice(tensor::Shape::nchw(bn, c, os.h(), os.w()));
          for (std::size_t s = 0; s < bn; ++s) {
            std::memcpy(slice.data() + s * c * hw,
                        g.data() + (s * os.c() + c_off) * hw, c * hw * sizeof(float));
          }
          slices[b] = std::move(slice);
          c_off += c;
        }
        for (std::size_t b = node.inputs.size(); b > 0; --b) {
          deliver_slot(n, b - 1, std::move(slices[b - 1]));
        }
        break;
      }
    }
  } catch (...) {
    record_error();
  }
  backward_done_.fetch_add(1, std::memory_order_acq_rel);
}

Tensor GraphExecutor::backward(const Tensor& grad_logits) {
  if (!supported_) throw std::logic_error("GraphExecutor::backward: unsupported plan");
  reset_backward_state();

  grads_[output_tid_] = grad_logits.clone();
  satisfy_backward(static_cast<std::size_t>(graph_.tensor(output_tid_).producer));

  {
    // The driver helps the pool and, whenever the window has room, stages
    // the next stashing node; the node's task becomes runnable with it.
    obs::trace::Span span("exec.join_bwd", obs::trace::Cat::kExec);
    std::size_t pos = 0;
    auto can_stage = [this, &pos] {
      return pos < pump_order_.size() &&
             staged_unconsumed_.load(std::memory_order_acquire) < kPumpWindow;
    };
    for (;;) {
      try {
        while (!error_flag_.load(std::memory_order_acquire) && can_stage())
          stage(pump_order_[pos++]);
      } catch (...) {
        record_error();
      }
      if (error_flag_.load(std::memory_order_acquire) ||
          backward_done_.load(std::memory_order_acquire) == num_nodes_)
        break;
      tensor::sched::help_while([this, &can_stage] {
        return error_flag_.load(std::memory_order_acquire) ||
               backward_done_.load(std::memory_order_acquire) == num_nodes_ || can_stage();
      });
    }
    join_dispatched();
  }
  if (error_flag_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(error_mu_);
    std::rethrow_exception(first_error_);
  }
  return std::move(input_grad_);
}

}  // namespace ebct::graph
