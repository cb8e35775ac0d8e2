#pragma once

/// \file activation_store.hpp
/// Strategy interface for stashing forward-pass activations until the
/// backward pass needs them. This is the seam the paper's framework plugs
/// into. There are two stores: RawStore keeps raw tensors (the stock
/// baseline), and memory::PagedStore (memory/pager.hpp) keeps whatever the
/// session's ActivationCodec produces — SZ for the framework, lossless or
/// JPEG-ACT for the comparison baselines. Both sit behind the same
/// stash/retrieve contract, so every memory strategy runs through identical
/// training code.
///
/// Two channels share the handle space:
///  - stash()/retrieve(): the compressible channel (conv inputs — what the
///    paper lossily compresses). Implementations may transform the tensor.
///  - stash_exact()/retrieve_exact(): byte-preserving layer state that must
///    round-trip exactly (batchnorm's normalised activations, pooling argmax
///    indices, linear/LRN saved inputs). The default keeps it raw in RAM;
///    the tiered pager (memory/pager.hpp) pages it against the byte budget
///    without ever routing it through a lossy codec. Layers only divert
///    their state here when pages_layer_state() says the store wants it, so
///    the fast member/arena paths stay untouched under the default stores.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.hpp"

namespace ebct::nn {

/// Opaque ticket for a stashed activation.
using StashHandle = std::uint64_t;

class ActivationStore {
 public:
  virtual ~ActivationStore() = default;

  /// Take ownership of `act` (the input activation of `layer`) until
  /// retrieve(). Implementations may transform it (compress, offload, ...).
  virtual StashHandle stash(const std::string& layer, tensor::Tensor&& act) = 0;

  /// Destructive pop: return the (possibly lossily reconstructed) activation.
  virtual tensor::Tensor retrieve(StashHandle handle) = 0;

  /// Bytes currently held by the store (the quantity the paper reduces).
  virtual std::size_t held_bytes() const = 0;

  /// True when the store wants layers to route their byte-exact saved state
  /// (stash_exact) through it instead of private members — the budgeted
  /// pager returns true so every saved-for-backward byte is governed by one
  /// budget. Default stores return false and layers keep their fast paths.
  virtual bool pages_layer_state() const { return false; }

  /// Byte-preserving channel: the returned tensor is bit-identical to the
  /// stashed one (safe for bitcast index data). Layers only call these
  /// when pages_layer_state() is true, so the default (for stores that
  /// never claim layer state) throws rather than silently hoarding.
  virtual StashHandle stash_exact(const std::string& layer, tensor::Tensor&& t);
  virtual tensor::Tensor retrieve_exact(StashHandle handle);

  /// Hint that the consumer is about to replay handles in LIFO order (the
  /// backward pass); prefetching stores start fetching ahead. Default no-op.
  virtual void prepare_backward() {}
};

/// Baseline store: keeps raw tensors (what stock Caffe/TensorFlow do).
class RawStore : public ActivationStore {
 public:
  StashHandle stash(const std::string& layer, tensor::Tensor&& act) override;
  tensor::Tensor retrieve(StashHandle handle) override;
  std::size_t held_bytes() const override { return held_bytes_; }

 private:
  std::unordered_map<StashHandle, tensor::Tensor> entries_;
  StashHandle next_ = 1;
  std::size_t held_bytes_ = 0;
};

/// A serialized activation produced by an ActivationCodec.
struct EncodedActivation {
  std::vector<std::uint8_t> bytes;
  tensor::Shape shape;
  std::string layer;
};

/// Pluggable lossy/lossless encoder for activations. The SZ-based framework
/// codec, the lossless baseline and the JPEG-ACT baseline all implement this.
/// Concrete codecs are usually obtained by name through the CodecRegistry
/// (core/codec_registry.hpp) rather than constructed directly.
class ActivationCodec {
 public:
  virtual ~ActivationCodec() = default;
  virtual EncodedActivation encode(const std::string& layer, const tensor::Tensor& act) = 0;
  virtual tensor::Tensor decode(const EncodedActivation& enc) = 0;
  virtual std::string name() const = 0;

  /// Compression ratio of the most recent encode, per layer. Optional stat
  /// hook: codecs that don't track ratios report nothing and consumers
  /// (IterationRecord's mean ratio, the benches) degrade gracefully.
  virtual std::map<std::string, double> last_ratios() const { return {}; }

  /// True when encode(a, t) and encode(b, t) are guaranteed byte-identical
  /// for every tensor t *right now* — i.e. the codec's transform does not
  /// depend on which of the two layer names it runs under. The pager's
  /// shared-stash dedup only aliases two puts when this holds, so a codec
  /// with per-layer state (adaptive error bounds, per-layer quality) must
  /// answer from its current configuration. Default is the safe "no".
  virtual bool encoding_layer_invariant(const std::string& /*a*/,
                                        const std::string& /*b*/) const {
    return false;
  }
};

/// Capability sub-interface of ActivationCodec: a codec whose per-element
/// reconstruction error is controlled by an installable per-layer absolute
/// bound. This is the seam the adaptive scheme (core/adaptive.hpp) programs
/// against — phases 1-4 run for any codec implementing it and silently
/// disable for unbounded codecs such as JPEG-ACT. Implementations inherit
/// both ActivationCodec and ErrorBoundedCodec.
class ErrorBoundedCodec {
 public:
  virtual ~ErrorBoundedCodec() = default;

  /// Install the adaptive per-layer absolute bound (phase 3 output).
  virtual void set_layer_bound(const std::string& layer, double eb) = 0;

  /// Bound currently in force for `layer` (base/bootstrap bound when unset).
  virtual double layer_bound(const std::string& layer) const = 0;

  /// Whether bounds installed now actually constrain the error. Composite
  /// codecs (CodecPolicy) return false when no member is error-bounded, so
  /// the adaptive scheme can tell a plumbing-only implementation from a
  /// real one.
  virtual bool error_bounded() const { return true; }
};

}  // namespace ebct::nn
