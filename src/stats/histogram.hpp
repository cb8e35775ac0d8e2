#pragma once

/// \file histogram.hpp
/// Fixed-range histogram used to render the error-distribution figures
/// (Figs. 3, 6) as ASCII plots.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace ebct::stats {

class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void add(std::span<const float> xs);

  std::size_t bins() const { return counts_.size(); }
  std::size_t count() const { return total_; }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  std::size_t bin_count(std::size_t i) const { return counts_[i]; }
  double bin_center(std::size_t i) const;
  double bin_width() const { return (hi_ - lo_) / static_cast<double>(counts_.size()); }

  /// Normalised density of bin i (integrates to ~1 over the range).
  double density(std::size_t i) const;

  /// Render a vertical-bar ASCII chart `width` rows tall.
  std::string ascii(std::size_t height = 12) const;

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
};

}  // namespace ebct::stats
