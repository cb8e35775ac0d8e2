#include "serve/session.hpp"

namespace ebct::serve {

void EncodeSession::begin(std::shared_ptr<nn::ActivationCodec> codec, const std::string& spec,
                          std::size_t window_elems, nn::ByteSink sink) {
  if (enc_) {
    enc_->rebind(std::move(codec), spec, window_elems, std::move(sink));
  } else {
    enc_ = std::make_unique<nn::StreamingEncoder>(std::move(codec), spec, window_elems,
                                                  std::move(sink));
  }
}

void DecodeSession::begin(nn::ByteSink sink) {
  // The decoder produces floats; requests ship raw bytes. Adapt here so the
  // connection handler deals in one sink type.
  nn::FloatSink fsink = [s = std::move(sink)](const float* data, std::size_t n) {
    s(reinterpret_cast<const std::uint8_t*>(data), n * sizeof(float));
  };
  if (dec_) {
    dec_->rebind(std::move(fsink));
  } else {
    dec_ = std::make_unique<nn::StreamingDecoder>(factory_, std::move(fsink));
  }
}

std::size_t DecodeSession::resident_cap_bytes() const {
  const std::size_t w =
      (dec_ && dec_->window_elems() > 0) ? dec_->window_elems() : nn::kDefaultWindowElems;
  return 4 * w * sizeof(float) + (std::size_t{1} << 20) + w * sizeof(float);
}

std::unique_ptr<EncodeSession> SessionPool::acquire_encode() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!free_encode_.empty()) {
    auto s = std::move(free_encode_.back());
    free_encode_.pop_back();
    return s;
  }
  return std::make_unique<EncodeSession>();
}

void SessionPool::release_encode(std::unique_ptr<EncodeSession> s) {
  if (!s) return;
  std::lock_guard<std::mutex> lock(mu_);
  free_encode_.push_back(std::move(s));
}

std::unique_ptr<DecodeSession> SessionPool::acquire_decode() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!free_decode_.empty()) {
    auto s = std::move(free_decode_.back());
    free_decode_.pop_back();
    return s;
  }
  return std::make_unique<DecodeSession>(factory_);
}

void SessionPool::release_decode(std::unique_ptr<DecodeSession> s) {
  if (!s) return;
  std::lock_guard<std::mutex> lock(mu_);
  free_decode_.push_back(std::move(s));
}

}  // namespace ebct::serve
