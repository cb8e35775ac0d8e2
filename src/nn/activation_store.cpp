#include "nn/activation_store.hpp"

#include <stdexcept>

#include "nn/streaming.hpp"

namespace ebct::nn {

// Default: no native streaming capability — StreamingEncoder/Decoder use the
// block-buffering fallback through encode()/decode(). Out-of-line so TUs that
// only see activation_store.hpp never instantiate unique_ptr<incomplete>.
std::unique_ptr<WindowEncoder> ActivationCodec::make_window_encoder() { return nullptr; }
std::unique_ptr<WindowDecoder> ActivationCodec::make_window_decoder() { return nullptr; }

StashHandle ActivationStore::stash_exact(const std::string& layer, tensor::Tensor&&) {
  throw std::logic_error("ActivationStore::stash_exact(" + layer +
                         "): this store does not page layer state");
}

tensor::Tensor ActivationStore::retrieve_exact(StashHandle) {
  throw std::logic_error("ActivationStore::retrieve_exact: this store does not page layer state");
}

StashHandle RawStore::stash(const std::string&, tensor::Tensor&& act) {
  const StashHandle h = next_++;
  held_bytes_ += act.bytes();
  entries_.emplace(h, std::move(act));
  return h;
}

tensor::Tensor RawStore::retrieve(StashHandle handle) {
  auto it = entries_.find(handle);
  if (it == entries_.end()) throw std::logic_error("RawStore::retrieve: unknown handle");
  tensor::Tensor t = std::move(it->second);
  held_bytes_ -= t.bytes();
  entries_.erase(it);
  return t;
}

}  // namespace ebct::nn
