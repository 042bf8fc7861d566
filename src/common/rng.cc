#include "common/rng.h"

#include <algorithm>

namespace stableshard {

std::vector<std::uint64_t> Rng::SampleWithoutReplacement(
    std::uint64_t population, std::uint64_t count) {
  SSHARD_CHECK(count <= population);
  std::vector<std::uint64_t> result;
  result.reserve(count);
  if (count == 0) return result;

  // Dense case: partial Fisher-Yates over an explicit index array.
  if (population <= 4 * count || population <= 64) {
    std::vector<std::uint64_t> indices(population);
    for (std::uint64_t i = 0; i < population; ++i) indices[i] = i;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t j = i + NextBounded(population - i);
      std::swap(indices[i], indices[j]);
      result.push_back(indices[i]);
    }
    return result;
  }

  // Sparse case: rejection sampling, membership by a scan of the values
  // already drawn (callers draw a handful, so a scan beats a hash set).
  // The output is pinned by common_test's SampleWithoutReplacementGolden.
  while (result.size() < count) {
    const std::uint64_t candidate = NextBounded(population);
    if (std::find(result.begin(), result.end(), candidate) == result.end()) {
      result.push_back(candidate);
    }
  }
  return result;
}

}  // namespace stableshard
