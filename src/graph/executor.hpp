#pragma once

/// \file executor.hpp
/// Graph-driven concurrent execution engine: turns the descriptive graph IR
/// (graph/graph.hpp) into a dependency-counted task DAG and dispatches ready
/// nodes onto the shared work-stealing pool, so data-independent branches —
/// Inception towers, a residual shortcut against its main path — run
/// concurrently in both the forward and the backward pass, overlapping with
/// the pager's codec encodes and spill I/O.
///
/// The hard part is the determinism contract (the sequential path and the
/// executor must be bitwise interchangeable at any pool size and budget),
/// and it is carried by one rule and three mechanisms. The rule: during a
/// pass only the driver — the thread inside forward()/backward() — calls
/// into the PagedStore's pager. Node tasks never touch the pager and never
/// wait, so the only thread that waits on pager I/O is the driver, at the
/// bottom of its own stack, where nothing it waits on can be suspended
/// beneath it. Between bouts of helping the pool, the driver does:
///
///  1. **Deposit + in-order commit (forward).** Layers running inside node
///     tasks stash through the session's PagedStore as usual, but the
///     executor intercepts the call (memory::StashInterceptor): the tensor
///     is deposited into a per-node slot and a virtual handle returned,
///     without touching the pager. The driver feeds the deposits of
///     *completed* nodes to the pager strictly in graph order, so pager
///     sequence numbers — and with them eviction keys, share-group dedup
///     and every counter — are identical to the sequential stash order no
///     matter which branch finished first.
///
///  2. **Staging (backward).** The driver replays the pager drops in the
///     sequential consumption order: stashing nodes by backward position,
///     and within a node in the order its layer retrieves (reverse deposit
///     order — LRN takes its scale before its input), pausing while
///     kPumpWindow staged values await their consumers. A backward node
///     task is dispatched only once its gradient has arrived *and* its
///     values are staged, so its retrieves just take the staged tensors.
///
///  3. **Fixed-order joins.** Concurrent branches write disjoint tensors;
///     where gradients meet (residual add, branch concat) the contributions
///     are combined by the *last arriving* task in the same fixed order the
///     sequential containers use — so even the floating-point reduction
///     order is pinned.
///
/// Transient node outputs (values in flight between producer and consumer),
/// not-yet-committed deposits and staged values live outside the pager's
/// budget accounting: they are bounded by the ready frontier, the driver's
/// commit lag and the staging window.
///
/// The executor is conservative: plan() validates every structural
/// assumption (supported ops, join shapes, single-join fan-out) and the
/// session falls back to the sequential path — same results, no overlap —
/// whenever supported() is false or the pool has one thread (see
/// handles()).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "memory/pager.hpp"
#include "tensor/sched.hpp"
#include "tensor/tensor.hpp"

namespace ebct::nn {
class Network;
}

namespace ebct::graph {

class GraphExecutor final : public memory::StashInterceptor {
 public:
  /// Build an execution plan for `g` over the layers of `net`, stashing
  /// through `store`. The graph must outlive the executor; `net` and
  /// `store` are the session's. Check supported() before use.
  GraphExecutor(const Graph& g, nn::Network& net, memory::PagedStore& store);
  ~GraphExecutor() override;

  GraphExecutor(const GraphExecutor&) = delete;
  GraphExecutor& operator=(const GraphExecutor&) = delete;

  /// False when the graph contains a structure the executor does not
  /// handle; the session then keeps the sequential path.
  bool supported() const { return supported_; }
  const std::string& unsupported_reason() const { return reason_; }

  /// The plan is shape-specialized (it was built from the graph's input
  /// shape); batches of any other shape take the sequential path. So does
  /// every batch on a one-thread pool: there each dispatched node task runs
  /// inline, so the whole forward would finish inside the first dispatch
  /// with every raw stash still deposited, outside the pager's budget.
  bool handles(const tensor::Shape& s) const {
    return supported_ && s == input_shape_ && tensor::sched::num_threads() > 1;
  }

  /// Graph-scheduled forward: returns the network output (logits).
  tensor::Tensor forward(const tensor::Tensor& input, bool train);

  /// Graph-scheduled backward from dL/dlogits; returns dL/dinput.
  tensor::Tensor backward(const tensor::Tensor& grad_logits);

  // --- memory::StashInterceptor (called by PagedStore) ---
  bool try_stash(const std::string& layer, tensor::Tensor& act, bool exact,
                 nn::StashHandle& out) override;
  /// Hands out the value the driver staged for this virtual handle; throws
  /// std::logic_error when nothing is staged.
  tensor::Tensor retrieve(nn::StashHandle handle, bool exact) override;

  /// Structural concurrency witness: the largest number of node tasks made
  /// runnable by a single completion event (an Inception block input
  /// completing readies every tower at once). Computed before dispatch, so
  /// it is independent of pool size and timing — the determinism-matrix
  /// test gates on it instead of flaky wall-clock ratios.
  std::size_t max_parallel_dispatch() const {
    return max_parallel_dispatch_.load(std::memory_order_relaxed);
  }

 private:
  enum class Kind { kLeaf, kAdd, kConcat };

  /// One intercepted stash of one node, awaiting its in-order commit.
  struct Deposit {
    std::string layer;
    tensor::Tensor value;          ///< deposited payload until committed
    bool exact = false;
    nn::StashHandle real = 0;      ///< pager handle once committed
    tensor::Tensor staged_value;   ///< backward: dropped ahead by the driver
    bool staged = false;
  };

  struct NodePlan {
    Kind kind = Kind::kLeaf;
    nn::Layer* layer = nullptr;    ///< non-const twin of Node::layer (leaves)
    std::int64_t backward_pos = -1;
    /// When this node is the head of a chain feeding a gradient join: the
    /// join's index in joins_ and the slot it feeds. -1 = none.
    int join = -1;
    int join_slot = -1;
  };

  /// Gradient-accumulation point of a multi-consumer tensor: the backward
  /// twin of a residual "add" / branch "concat" node. Contributions arrive
  /// from concurrent branch tasks into per-slot cells; the last arriver
  /// combines them in the fixed sequential order.
  struct JoinSpec {
    TensorId tensor = 0;           ///< the shared input tensor
    NodeId join_node = kNoNode;    ///< the add/concat node
    bool is_add = false;           ///< add: base+axpy; concat: zero+reverse axpy
    std::vector<tensor::Tensor> contrib;  ///< one cell per join input slot
    std::atomic<std::size_t> arrived{0};
  };

  // --- planning ---
  void build_plan(nn::Network& net);
  void fail(std::string reason);

  // --- forward engine ---
  void reset_forward_state();
  void run_node_forward(std::size_t n);
  tensor::Tensor forward_kernel(std::size_t n);
  const tensor::Tensor& peek_value(TensorId t) const { return values_[t]; }
  void release_value(TensorId t);
  tensor::Tensor take_value(TensorId t);
  /// Decrement consumer fan-in counters; append newly ready nodes.
  void on_tensor_available(TensorId t, std::vector<std::size_t>& ready);
  void note_burst(std::size_t ready);
  void dispatch(const std::vector<std::size_t>& ready);
  void record_error();
  /// Join every dispatched task. Waits outside futures_mu_ (tasks push new
  /// futures under it) and loops until no task remains in flight.
  void join_dispatched();
  /// Driver only: commit the deposits of completed nodes from `next` on, in
  /// graph order; returns the first node not yet completed.
  std::size_t commit_completed(std::size_t next);

  // --- backward engine ---
  void reset_backward_state();
  void run_node_backward(std::size_t n);
  void deliver_slot(std::size_t join_node, std::size_t slot, tensor::Tensor&& g);
  void deliver_tensor(TensorId t, tensor::Tensor&& g);
  void contribute(int join, std::size_t slot, tensor::Tensor&& g);
  /// One of node n's backward preconditions (gradient, staged values) is
  /// met; the last one dispatches its task.
  void satisfy_backward(std::size_t n);
  /// Driver only: drop node n's values from the pager in retrieve order.
  void stage(std::size_t n);

  const Graph& graph_;
  memory::PagedStore& store_;
  bool supported_ = true;
  std::string reason_;

  std::size_t num_nodes_ = 0;
  std::vector<NodePlan> plan_;
  std::deque<JoinSpec> joins_;  ///< deque: JoinSpec holds an atomic (immovable)
  std::vector<int> join_of_;  ///< tensor id -> joins_ index, -1 = none
  TensorId input_tid_ = 0;
  TensorId output_tid_ = 0;
  tensor::Shape input_shape_;

  // Per-pass tensor values: written once by the producer task, read by
  // consumer tasks (publication ordered through the fan-in counters), freed
  // by the last consumer.
  std::vector<tensor::Tensor> values_;
  std::unique_ptr<std::atomic<int>[]> remaining_;
  /// Per-node dispatch counters. Forward: unavailable inputs. Backward:
  /// unmet preconditions (the gradient, plus staging for stashing nodes).
  std::unique_ptr<std::atomic<int>[]> fanin_;
  std::unique_ptr<std::atomic<bool>[]> completed_;
  std::atomic<std::size_t> forward_done_{0};
  bool train_ = true;

  // Deposits: per-node list appended only by the node's own task, read by
  // the driver after the node's completed flag; in backward the driver
  // stages into it before the node is dispatched.
  std::vector<std::vector<Deposit>> deposits_;

  // Backward state.
  std::vector<tensor::Tensor> grads_;
  tensor::Tensor input_grad_;
  std::atomic<std::size_t> backward_done_{0};

  // Staging: stashing nodes by backward position, and the number of staged
  // values not yet taken by their node (bounded by kPumpWindow).
  std::vector<std::size_t> pump_order_;
  std::atomic<std::size_t> staged_unconsumed_{0};
  static constexpr std::size_t kPumpWindow = 4;

  // Shared error funnel + dispatched-task futures (joined at pass end).
  std::mutex error_mu_;
  std::exception_ptr first_error_;
  std::atomic<bool> error_flag_{false};
  std::mutex futures_mu_;
  std::vector<tensor::sched::Future> futures_;

  std::atomic<std::size_t> max_parallel_dispatch_{0};
};

}  // namespace ebct::graph
