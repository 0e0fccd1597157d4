#include "sim/drain.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace mcs::sim {

bool drain_is_monotone(const double* svc, std::size_t hops) {
  MCS_EXPECTS(hops >= 1);
  if (hops >= 2 && svc[hops - 1] > svc[hops - 2]) return false;
  for (std::size_t j = 1; j + 1 < hops; ++j)
    if (svc[j - 1] > svc[j]) return false;
  return true;
}

void drain_closed_form(const double* acquire, const double* svc,
                       std::size_t hops, int flits, double* out) {
  MCS_EXPECTS(hops >= 1 && static_cast<std::size_t>(flits) >= hops);
  // Row f of the recurrence is row f-1 shifted left by one hop, with
  // start(f, K-1) = start(f-1, K-1) + b appended (DESIGN.md §9.3). The
  // additions stay serial: x + (M-K)*b rounds differently.
  const double b = svc[hops >= 2 ? hops - 2 : 0];
  double x = acquire[hops - 1];
  for (int n = flits - static_cast<int>(hops); n > 0; --n) x += b;
  out[0] = x;
  for (std::size_t j = 1; j < hops; ++j) {
    x += b;
    out[j] = x;
  }
}

void drain_grid(const double* acquire, const double* svc, std::size_t hops,
                int flits, double* out) {
  MCS_EXPECTS(hops >= 2 && flits >= 1);
  // One pass per flit row, in place: cell j of the new row reads cell
  // j-1 of the new row and cell j+1 of the old one, which is not yet
  // overwritten. j = 0: flits wait in the source, constrained by channel
  // reuse and the buffer one stage ahead; j = last: the tail leaves
  // through both service terms.
  std::copy_n(acquire, hops, out);
  const std::size_t last = hops - 1;
  for (int rows = flits - 1; rows > 0; --rows) {
    out[0] = std::max(out[0] + svc[0], out[1]);
    for (std::size_t j = 1; j < last; ++j)
      out[j] = std::max(out[j - 1] + svc[j - 1], out[j + 1]);
    out[last] = std::max(out[last - 1] + svc[last - 1], out[last] + svc[last]);
  }
}

}  // namespace mcs::sim
