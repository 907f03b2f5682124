// sensord_lint fixture: NO rule may fire on this file. It exercises the
// idioms the rules must leave alone. Not compiled into any target.
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace sensord_lint_fixture {

// Seeded randomness through the sanctioned Rng: clean.
inline double SeededDraw(uint64_t seed) {
  sensord::Rng rng(seed);
  return rng.UniformDouble();
}

// Unordered containers used for keyed lookup (never iterated): clean.
inline double Lookup(const std::unordered_map<uint64_t, double>& cache,
                     uint64_t key) {
  const auto it = cache.find(key);
  return it == cache.end() ? 0.0 : it->second;
}

// Ordered iteration feeding output: clean (std::map iterates sorted).
struct Row {
  uint64_t id;
  double value;
};
inline std::vector<Row> Export(const std::map<uint64_t, double>& table) {
  std::vector<Row> out;
  for (const auto& [id, value] : table) out.push_back({id, value});
  return out;
}

}  // namespace sensord_lint_fixture
