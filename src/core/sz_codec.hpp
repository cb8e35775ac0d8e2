#pragma once

/// \file sz_codec.hpp
/// ActivationCodec backed by the SZ error-bounded compressor, with a
/// per-layer absolute error bound that the adaptive scheme updates every W
/// iterations (phase 4 of the framework, §4.4).

#include <map>
#include <mutex>
#include <string>

#include "nn/activation_store.hpp"
#include "sz/compressor.hpp"

namespace ebct::core {

/// Registry spec:
/// "sz[:eb=<bound>,mode=abs|rel,zero=none|rezero]"
/// — unset parameters inherit the FrameworkConfig defaults (bootstrap
/// error bound, zero mode).
class SzActivationCodec : public nn::ActivationCodec, public nn::ErrorBoundedCodec {
 public:
  explicit SzActivationCodec(sz::Config base_config);

  nn::EncodedActivation encode(const std::string& layer, const tensor::Tensor& act) override;
  tensor::Tensor decode(const nn::EncodedActivation& enc) override;
  std::string name() const override { return "sz-error-bounded"; }

  /// Install the adaptive per-layer bound (phase 3 output).
  void set_layer_bound(const std::string& layer, double eb) override;
  double layer_bound(const std::string& layer) const override;

  /// Compression ratio of the most recent encode per layer.
  std::map<std::string, double> last_ratios() const override;

  /// The adaptive scheme's per-layer bounds are *absolute* (Eq. 9); in
  /// relative-bound mode an installed value would be silently rescaled by
  /// each layer's range, so the codec reports itself unbounded and the
  /// scheme disables instead of mis-programming it.
  bool error_bounded() const override {
    return base_.bound_mode == sz::BoundMode::kAbsolute;
  }

  /// Two layers encode identically iff the bound in force is the same —
  /// the transform is otherwise layer-blind. Under adaptive per-layer
  /// bounds this answer changes over time, which is exactly why the pager
  /// re-asks at every put instead of caching it.
  bool encoding_layer_invariant(const std::string& a,
                                const std::string& b) const override {
    return layer_bound(a) == layer_bound(b);
  }

  const sz::Config& base_config() const { return base_; }

 private:
  sz::Config base_;
  mutable std::mutex mu_;
  std::map<std::string, double> bounds_;
  std::map<std::string, double> last_ratio_;
};

}  // namespace ebct::core
