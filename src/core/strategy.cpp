#include "core/strategy.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rtmp::core {

void ScaleSearchEffort(StrategyOptions& options, double factor) {
  if (factor <= 0.0) {
    throw std::invalid_argument("ScaleSearchEffort: factor must be positive");
  }
  auto scale = [factor](std::size_t value) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(
               static_cast<double>(value) * factor)));
  };
  options.ga.mu = std::max<std::size_t>(4, scale(options.ga.mu));
  options.ga.lambda = std::max<std::size_t>(4, scale(options.ga.lambda));
  options.ga.generations = scale(options.ga.generations);
  options.rw.iterations = scale(options.rw.iterations);
}

}  // namespace rtmp::core
