#include "nn/activation_store.hpp"

#include <stdexcept>

namespace ebct::nn {

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
