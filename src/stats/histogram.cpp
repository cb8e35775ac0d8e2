#include "stats/histogram.hpp"

#include <algorithm>
#include <stdexcept>

namespace ebct::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must exceed lo");
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be > 0");
  counts_.assign(bins, 0);
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const auto i = static_cast<std::size_t>((x - lo_) / (hi_ - lo_) *
                                          static_cast<double>(counts_.size()));
  counts_[std::min(i, counts_.size() - 1)] += 1;
}

void Histogram::add(std::span<const float> xs) {
  for (float x : xs) add(static_cast<double>(x));
}

double Histogram::bin_center(std::size_t i) const {
  return lo_ + (static_cast<double>(i) + 0.5) * bin_width();
}

double Histogram::density(std::size_t i) const {
  const std::size_t in_range = total_ - underflow_ - overflow_;
  if (in_range == 0) return 0.0;
  return static_cast<double>(counts_[i]) / (static_cast<double>(in_range) * bin_width());
}

std::string Histogram::ascii(std::size_t height) const {
  std::size_t max_count = 1;
  for (auto c : counts_) max_count = std::max(max_count, c);
  std::string out;
  for (std::size_t row = height; row > 0; --row) {
    const double level = static_cast<double>(row) / static_cast<double>(height);
    for (auto c : counts_) {
      out += (static_cast<double>(c) / static_cast<double>(max_count) >= level) ? '#' : ' ';
    }
    out += '\n';
  }
  out += std::string(counts_.size(), '-');
  out += '\n';
  return out;
}

}  // namespace ebct::stats
