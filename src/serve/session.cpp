#include "serve/session.hpp"

namespace ebct::serve {

namespace {

template <class T>
std::unique_ptr<T> pop(std::mutex& mu, std::vector<std::unique_ptr<T>>& free) {
  std::lock_guard<std::mutex> lock(mu);
  if (free.empty()) return nullptr;
  auto obj = std::move(free.back());
  free.pop_back();
  return obj;
}

template <class T>
void push(std::mutex& mu, std::vector<std::unique_ptr<T>>& free, std::unique_ptr<T> obj) {
  if (!obj) return;
  std::lock_guard<std::mutex> lock(mu);
  free.push_back(std::move(obj));
}

}  // namespace

std::unique_ptr<nn::StreamingEncoder> SessionPool::acquire_encoder(
    std::shared_ptr<nn::ActivationCodec> codec, std::string spec, std::size_t window_elems,
    nn::ByteSink sink) {
  auto enc = pop(mu_, free_encoders_);
  if (!enc)
    return std::make_unique<nn::StreamingEncoder>(std::move(codec), std::move(spec),
                                                  window_elems, std::move(sink));
  enc->rebind(std::move(codec), std::move(spec), window_elems, std::move(sink));
  return enc;
}

std::unique_ptr<nn::StreamingDecoder> SessionPool::acquire_decoder(nn::FloatSink sink) {
  auto dec = pop(mu_, free_decoders_);
  if (!dec) return std::make_unique<nn::StreamingDecoder>(factory_, std::move(sink));
  dec->rebind(std::move(sink));
  return dec;
}

void SessionPool::release(std::unique_ptr<nn::StreamingEncoder> enc) {
  push(mu_, free_encoders_, std::move(enc));
}

void SessionPool::release(std::unique_ptr<nn::StreamingDecoder> dec) {
  push(mu_, free_decoders_, std::move(dec));
}

}  // namespace ebct::serve
