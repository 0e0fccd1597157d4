#include "sim/drain.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace mcs::sim {

namespace {

// Fixed-path-length drain kernel: the whole start(f, j) row lives in
// locals, so the compiler keeps it in registers and the out-of-order core
// overlaps the add/max chains of consecutive flit rows on its own — no
// store/load round-trips in the latency-critical recurrence. The formulas
// and evaluation order per cell are EXACTLY the generic loop's, so the
// computed doubles are bit-identical.
template <int K>
void drain_fixed(const double* acquire, const double* svc_in, int rows,
                 double* out) {
  static_assert(K >= 2);
  double svc[K];
  double p[K];
  for (int j = 0; j < K; ++j) svc[j] = svc_in[j];
  for (int j = 0; j < K; ++j) p[j] = acquire[j];
  for (; rows > 0; --rows) {
    double c[K];
    c[0] = std::max(p[0] + svc[0], p[1]);
    for (int j = 1; j + 1 < K; ++j)
      c[j] = std::max(c[j - 1] + svc[j - 1], p[j + 1]);
    c[K - 1] = std::max(c[K - 2] + svc[K - 2], p[K - 1] + svc[K - 1]);
    for (int j = 0; j < K; ++j) p[j] = c[j];
  }
  for (int j = 0; j < K; ++j) out[j] = p[j];
}

using DrainFn = void (*)(const double*, const double*, int, double*);

// Dispatch table for the path lengths that occur in practice (trees:
// 2..2*height; cut-through relays: up to 4*height + ICN2 diameter).
constexpr DrainFn kDrainFixed[] = {
    nullptr,          nullptr,          drain_fixed<2>,  drain_fixed<3>,
    drain_fixed<4>,   drain_fixed<5>,   drain_fixed<6>,  drain_fixed<7>,
    drain_fixed<8>,   drain_fixed<9>,   drain_fixed<10>, drain_fixed<11>,
    drain_fixed<12>,  drain_fixed<13>,  drain_fixed<14>, drain_fixed<15>,
    drain_fixed<16>};
constexpr std::size_t kMaxFixedDrain =
    sizeof(kDrainFixed) / sizeof(kDrainFixed[0]) - 1;

}  // namespace

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
                int flits, double* out, double* scratch) {
  MCS_EXPECTS(hops >= 2 && flits >= 1);
  int rows = flits - 1;
  if (hops <= kMaxFixedDrain) {
    kDrainFixed[hops](acquire, svc, rows, out);
    return;
  }
  // Every cell is computed with the ORIGINAL per-flit formula on the
  // original operands — reordering independent cells cannot change their
  // values, so results stay bit-identical (the golden tests pin this).
  // The loop is software-pipelined two flit rows per pass: cell (f+1, j-1)
  // only needs (f, j), so the second row trails the first by one column
  // and the two serial add/max dependency chains overlap — the recurrence
  // is latency-bound, and this halves its critical path.
  double* prev = scratch;
  double* mid = scratch + hops;
  double* cur = scratch + 2 * hops;
  std::copy_n(acquire, hops, prev);
  const std::size_t last = hops - 1;
  // One row: to = next flit row after from. (j = 0: flits wait in the
  // source, constrained by channel reuse and the buffer one stage ahead;
  // j = last: tail leaves through both service terms.)
  const auto single = [&](const double* from, double* to) {
    to[0] = std::max(from[0] + svc[0], from[1]);
    for (std::size_t j = 1; j + 1 < hops; ++j)
      to[j] = std::max(to[j - 1] + svc[j - 1], from[j + 1]);
    to[last] = std::max(to[last - 1] + svc[last - 1], from[last] + svc[last]);
  };
  // Two rows: m = row after from, to = row after m, interleaved. Only
  // paths longer than every fixed-K kernel reach this loop, so it needs
  // no short-path special cases.
  const auto dual = [&](const double* from, double* m, double* to) {
    m[0] = std::max(from[0] + svc[0], from[1]);
    m[1] = std::max(m[0] + svc[0], from[2]);
    to[0] = std::max(m[0] + svc[0], m[1]);
    for (std::size_t j = 2; j + 1 < hops; ++j) {
      m[j] = std::max(m[j - 1] + svc[j - 1], from[j + 1]);
      to[j - 1] = std::max(to[j - 2] + svc[j - 2], m[j]);
    }
    m[last] = std::max(m[last - 1] + svc[last - 1], from[last] + svc[last]);
    to[last - 1] = std::max(to[last - 2] + svc[last - 2], m[last]);
    to[last] = std::max(to[last - 1] + svc[last - 1], m[last] + svc[last]);
  };
  for (; rows >= 2; rows -= 2) {
    dual(prev, mid, cur);
    std::swap(prev, cur);
  }
  if (rows == 1) {
    single(prev, cur);
    std::swap(prev, cur);
  }
  std::copy_n(prev, hops, out);
}

}  // namespace mcs::sim
