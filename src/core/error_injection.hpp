#pragma once

/// \file error_injection.hpp
/// Error-injection harness used throughout §3 of the paper: instead of
/// running the compressor, inject its *modelled* error — uniform on the
/// activations (Fig. 6), normal on the gradients (Fig. 9) — and observe the
/// propagation.

#include <span>

#include "tensor/rng.hpp"

namespace ebct::core {

/// Add U(-eb, +eb) noise to every element; when `preserve_zeros` is set,
/// exact zeros stay exact (the Fig. 6b configuration).
void inject_uniform(std::span<float> data, double eb, tensor::Rng& rng,
                    bool preserve_zeros);

/// Add N(0, sigma) noise to every element (gradient-level injection, Fig. 9).
void inject_normal(std::span<float> data, double sigma, tensor::Rng& rng);

}  // namespace ebct::core
