// Path-based column generation — the scalable alternative to the
// monolithic MIP of provision.h.
//
// The full encoding carries one binary per (request, logical edge); on a
// fat-tree k=8 all-pairs policy that is millions of variables before the
// solve even starts. Column generation (Dantzig-Wolfe over the per-request
// path polytopes) instead keeps a *restricted master problem* over whole
// s~>t paths through each request's NFA x topology product graph:
//
//   min  sum_p cost_p y_p  (+ the min-max terms)
//   s.t. sum_{p in P_i} y_p = 1                per request i  (convexity)
//        c_l r_l - sum_p rate_i occ_l(p) y_p = 0   per link l (bookkeeping)
//        r_l <= r_max,  c_l r_l <= R_max,  r_l in [0,1]
//
// and prices new paths in by shortest-path search with dual-adjusted edge
// weights (w_e = cost_e + rate_i * pi_l on link-crossing edges); a path
// enters while its reduced cost w(p) - sigma_i is negative. When pricing
// dries up the master LP value equals the full encoding's LP relaxation
// optimum, and branch & bound over the generated columns (price-and-branch)
// closes the integer gap.
//
// Certified or fall back: a colgen answer is accepted only when the
// artificial columns are at zero and the integer objective is within
// kCertTol of the converged dual bound; otherwise the full encoding is
// re-solved (counted in Provision_result::full_fallbacks). Infeasibility is
// therefore only ever *proved* by the full encoding, and accepted colgen
// answers match the full optimum by construction — the property the
// testgen cross-oracle checks on every fuzz iteration.
#pragma once

#include <optional>
#include <vector>

#include "core/provision.h"

namespace merlin::core {

// Relative tolerance of the optimality certificate (integer objective vs
// converged dual bound). The cross-oracle compares objectives across modes
// at a strictly larger tolerance, so certified answers always pass it.
inline constexpr double kCertTol = 1e-5;

// One priced path: logical edge ids in source->sink order, its objective
// cost, and its reduced cost under the duals it was priced against.
struct Priced_path {
    std::vector<int> edges;
    double cost = 0;
    double reduced_cost = 0;
};

// The pricing subproblem, exposed for colgen_test's brute-force
// cross-check: the minimum-reduced-cost s~>t path for one request under
// link duals `pi` (indexed by physical link) and convexity dual `sigma`.
// Edges over down links are excluded. Returns nullopt when the sink is
// unreachable or a negative-cost cycle makes the search unsound (the
// caller then abandons certification for this round).
[[nodiscard]] std::optional<Priced_path> price_request(
    const topo::Topology& topo, const Logical_topology& logical,
    const std::vector<double>& edge_costs, double rate_mbps,
    const std::vector<double>& pi, double sigma);

// Column-generation provisioning: master-solve -> price -> add columns
// until no path prices out, then branch on fractional path choices. Falls
// back to provision() when the certificate does not close.
[[nodiscard]] Provision_result provision_colgen(
    const topo::Topology& topo, const std::vector<Guaranteed_request>& requests,
    Heuristic heuristic = Heuristic::weighted_shortest_path,
    const mip::Options& options = {});

}  // namespace merlin::core
