#include "topology/tree_math.hpp"

#include <limits>
#include <string>

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace mcs::topo {

namespace {
constexpr std::int64_t kMaxNodes = std::int64_t{1} << 31;
}

std::int64_t checked_pow(std::int64_t k, int e) {
  MCS_EXPECTS(k >= 1 && e >= 0);
  std::int64_t result = 1;
  for (int i = 0; i < e; ++i) {
    if (result > std::numeric_limits<std::int64_t>::max() / k)
      throw ConfigError("tree size overflows 64-bit arithmetic");
    result *= k;
  }
  return result;
}

std::int64_t geometric_sum(std::int64_t k, int terms) {
  std::int64_t sum = 0;
  std::int64_t term = 1;
  for (int i = 0; i < terms; ++i) {
    sum += term;
    term *= k;
  }
  return sum;
}

void TreeShape::validate() const {
  if (m < 2 || m % 2 != 0)
    throw ConfigError("TreeShape: m must be even and >= 2, got " +
                      std::to_string(m));
  if (n < 1)
    throw ConfigError("TreeShape: n must be >= 1, got " + std::to_string(n));
  if (node_count() > kMaxNodes)
    throw ConfigError("TreeShape: node count exceeds supported size");
}

std::int64_t TreeShape::node_count() const {
  return 2 * checked_pow(k(), n);
}

std::int64_t TreeShape::switch_count() const {
  return (2 * static_cast<std::int64_t>(n) - 1) * checked_pow(k(), n - 1);
}

std::int64_t TreeShape::switches_at_level(int level) const {
  MCS_EXPECTS(level >= 1 && level <= n);
  const std::int64_t per_level = checked_pow(k(), n - 1);
  return level == n ? per_level : 2 * per_level;
}

double TreeShape::hop_probability(int j) const {
  MCS_EXPECTS(j >= 1 && j <= n);
  const auto big_n = static_cast<double>(node_count());
  const auto kk = static_cast<double>(k());
  if (j < n) {
    return static_cast<double>(checked_pow(k(), j - 1)) * (kk - 1.0) /
           (big_n - 1.0);
  }
  const auto near_half = static_cast<double>(checked_pow(k(), n - 1));
  return (big_n - near_half) / (big_n - 1.0);
}

std::vector<double> TreeShape::hop_distribution() const {
  std::vector<double> p(static_cast<std::size_t>(n));
  for (int j = 1; j <= n; ++j)
    p[static_cast<std::size_t>(j - 1)] = hop_probability(j);
  return p;
}

double TreeShape::avg_distance() const {
  double d = 0.0;
  for (int j = 1; j <= n; ++j) d += 2.0 * j * hop_probability(j);
  return d;
}

double TreeShape::avg_distance_closed_form() const {
  const auto big_n = static_cast<double>(node_count());
  const auto kn = static_cast<double>(checked_pow(k(), n));
  const auto kn1 = static_cast<double>(checked_pow(k(), n - 1));
  const auto geo = static_cast<double>(geometric_sum(k(), n - 1));
  return 2.0 * (2.0 * n * kn - kn1 - geo) / (big_n - 1.0);
}

std::vector<double> concentrator_hop_distribution(const TreeShape& shape) {
  shape.validate();
  if (shape.n == 1) return {1.0};  // single switch: every node is one hop up
  const auto n_nodes = static_cast<double>(shape.node_count());
  std::vector<double> p(static_cast<std::size_t>(shape.n));
  for (int j = 1; j <= shape.n; ++j) {
    double count;
    if (j == 1) {
      count = static_cast<double>(shape.k());
    } else if (j < shape.n) {
      count = static_cast<double>(checked_pow(shape.k(), j) -
                                  checked_pow(shape.k(), j - 1));
    } else {
      count = n_nodes - static_cast<double>(checked_pow(shape.k(), shape.n - 1));
    }
    p[static_cast<std::size_t>(j - 1)] = count / n_nodes;
  }
  return p;
}

std::vector<double> tail_of(const std::vector<double>& p) {
  std::vector<double> tail(p.size() + 1, 0.0);
  for (std::size_t l = p.size(); l-- > 0;) tail[l] = tail[l + 1] + p[l];
  return tail;
}

int min_height_for(int m, std::int64_t endpoints) {
  TreeShape probe{m, 1};
  probe.validate();
  if (endpoints < 1) throw ConfigError("min_height_for: need >= 1 endpoint");
  int n = 1;
  while (TreeShape{m, n}.node_count() < endpoints) {
    ++n;
    TreeShape{m, n}.validate();
  }
  return n;
}

}  // namespace mcs::topo
