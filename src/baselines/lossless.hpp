#pragma once

/// \file lossless.hpp
/// Lossless activation codec — the ~2x comparison point the paper cites for
/// float data ([35], [39]). Scheme: exact-zero run-length stream (activation
/// sparsity is where lossless wins) plus per-byte-plane Huffman coding of
/// the remaining IEEE-754 bytes (exponent bytes are highly compressible,
/// mantissa bytes are near-random — which is exactly why lossless tops out
/// around 2x).

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "nn/activation_store.hpp"

namespace ebct::baselines {

/// Registry spec: "lossless" (no parameters).
class LosslessCodec : public nn::ActivationCodec {
 public:
  nn::EncodedActivation encode(const std::string& layer, const tensor::Tensor& act) override;
  tensor::Tensor decode(const nn::EncodedActivation& enc) override;
  std::string name() const override { return "lossless-rle-huffman"; }
  std::map<std::string, double> last_ratios() const override;

  /// The transform has no per-layer state at all.
  bool encoding_layer_invariant(const std::string&, const std::string&) const override {
    return true;
  }

  /// The inverse transform, bytes-to-span: decodes the payload into every
  /// element of `out`. Throws std::runtime_error when the payload is
  /// malformed or declares a different element count than out.size().
  static void decode_span(std::span<const std::uint8_t> payload, std::span<float> out);

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> last_ratio_;
};

}  // namespace ebct::baselines
