// Tail drain of a worm that spans its whole path: the last flit row
// start(M-1, j) of the single-flit buffer recurrence (sim/engine.hpp),
// evaluated from the header row start(0, j) = acquire[j].
//
// Two evaluations of the same doubles (DESIGN.md §9.3):
//  - drain_grid runs the full (M-1) x K recurrence, and works on any path;
//  - drain_closed_form is one chain of M-1 additions, and is exact on a
//    path drain_is_monotone accepts whose header row satisfies
//    acquire[j+1] >= acquire[j] + svc[j] (rounded), which every wormhole
//    header walk does: hop j+1 is requested when hop j's crossing ends.
#pragma once

#include <cstddef>

namespace mcs::sim {

/// True when `svc` (per-hop flit service, hops >= 1) is nondecreasing
/// over hops 0..K-2 and svc[K-1] <= svc[K-2]. Every store-and-forward
/// relay leg, [t_cn, t_cs, ..., t_cs, t_cn] with t_cn <= t_cs, has this
/// shape; cut-through merged worms (one leg per network) do not.
[[nodiscard]] bool drain_is_monotone(const double* svc, std::size_t hops);

/// start(M-1, j) on a monotone path: each flit row is the previous one
/// shifted by one hop, so start(M-1, j) is acquire[K-1] with
/// b = svc[max(K-2, 0)] added M-K+j times, one rounded add at a time.
void drain_closed_form(const double* acquire, const double* svc,
                       std::size_t hops, int flits, double* out);

/// start(M-1, j) by the full recurrence, one flit row per pass over
/// `out` (which must not alias `acquire`).
void drain_grid(const double* acquire, const double* svc, std::size_t hops,
                int flits, double* out);

}  // namespace mcs::sim
