#include "core/sz_codec.hpp"

#include <stdexcept>

#include "core/codec_registry.hpp"

namespace ebct::core {

using nn::EncodedActivation;
using tensor::Tensor;

SzActivationCodec::SzActivationCodec(sz::Config base_config) : base_(base_config) {}

void SzActivationCodec::set_layer_bound(const std::string& layer, double eb) {
  std::lock_guard<std::mutex> lock(mu_);
  bounds_[layer] = eb;
}

double SzActivationCodec::layer_bound(const std::string& layer) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = bounds_.find(layer);
  return it == bounds_.end() ? base_.error_bound : it->second;
}

std::map<std::string, double> SzActivationCodec::last_ratios() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_ratio_;
}

EncodedActivation SzActivationCodec::encode(const std::string& layer, const Tensor& act) {
  sz::Config cfg = base_;
  cfg.error_bound = layer_bound(layer);
  sz::Compressor comp(cfg);
  sz::CompressedBuffer buf = comp.compress(act.span());
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_ratio_[layer] = buf.compression_ratio();
  }
  EncodedActivation enc;
  enc.layer = layer;
  enc.shape = act.shape();
  enc.bytes = std::move(buf.bytes);
  return enc;
}

Tensor SzActivationCodec::decode(const EncodedActivation& enc) {
  Tensor out(enc.shape);
  sz::Compressor(base_).decompress(std::span<const std::uint8_t>(enc.bytes), out.span());
  return out;
}

void detail::register_sz_codec(CodecRegistry& reg) {
  reg.register_codec(
      {"sz",
       "SZ error-bounded lossy compressor — the framework codec (adaptive-compatible)",
       "eb=<abs bound>, mode=abs|rel, zero=none|rezero",
       true},
      [](const std::string& params, const FrameworkConfig& fw) {
        CodecParams p("sz", params);
        // Spec defaults reproduce what TrainingSession hard-wired before the
        // registry: bootstrap bound and framework zero mode — so "sz" with
        // no parameters trains byte-identically to the pre-registry pipeline.
        sz::Config cfg;
        cfg.error_bound = p.get_double("eb", fw.bootstrap_error_bound);
        const std::string mode = p.get_string("mode", "abs");
        if (mode == "abs") {
          cfg.bound_mode = sz::BoundMode::kAbsolute;
        } else if (mode == "rel") {
          cfg.bound_mode = sz::BoundMode::kRelative;
        } else {
          throw std::invalid_argument("sz: mode must be abs or rel, got '" + mode + "'");
        }
        const std::string zero =
            p.get_string("zero", fw.zero_mode == sz::ZeroMode::kNone ? "none" : "rezero");
        if (zero == "none") {
          cfg.zero_mode = sz::ZeroMode::kNone;
        } else if (zero == "rezero") {
          cfg.zero_mode = sz::ZeroMode::kRezero;
        } else {
          throw std::invalid_argument("sz: zero must be none or rezero, got '" + zero + "'");
        }
        p.finish();
        return std::make_shared<SzActivationCodec>(cfg);
      });
}

}  // namespace ebct::core
