#pragma once

/// \file tensor.hpp
/// Dense float32 tensor with NCHW layout and owning storage. Copies are
/// explicit via clone() so accidental deep copies can't hide in layer code.

#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "tensor/shape.hpp"

namespace ebct::tensor {

/// Owning, contiguous, row-major float tensor.
class Tensor {
 public:
  Tensor() = default;

  explicit Tensor(Shape shape) : shape_(shape), data_(shape.numel(), 0.0f) {}

  Tensor(Shape shape, float fill) : shape_(shape), data_(shape.numel(), fill) {}

  Tensor(const Tensor&) = delete;
  Tensor& operator=(const Tensor&) = delete;

  /// Moves leave the source empty: no storage and a default Shape.
  Tensor(Tensor&& o) noexcept { *this = std::move(o); }
  Tensor& operator=(Tensor&& o) noexcept {
    if (this != &o) {
      shape_ = o.shape_;
      data_ = std::move(o.data_);
      o.shape_ = Shape();
      o.data_.clear();
    }
    return *this;
  }

  /// Deep copy (explicit; Tensor is otherwise move-only).
  Tensor clone() const {
    Tensor t(shape_);
    t.data_ = data_;
    return t;
  }

  const Shape& shape() const { return shape_; }
  std::size_t numel() const { return data_.size(); }
  std::size_t bytes() const { return data_.size() * sizeof(float); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> span() { return {data_.data(), data_.size()}; }
  std::span<const float> span() const { return {data_.data(), data_.size()}; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// NCHW element access (rank-4 tensors).
  float& at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
    return data_[shape_.offset(n, c, h, w)];
  }
  float at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const {
    return data_[shape_.offset(n, c, h, w)];
  }

  void zero() {
    for (auto& v : data_) v = 0.0f;
  }

  void fill(float v) {
    for (auto& x : data_) x = v;
  }

  /// Reinterpret the same storage under a new shape with equal numel.
  void reshape(Shape s) {
    if (s.numel() != numel()) throw std::invalid_argument("Tensor::reshape numel mismatch");
    shape_ = s;
  }

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace ebct::tensor
