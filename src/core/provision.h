// Guaranteed-rate provisioning (Section 3.2): the MIP over logical
// topologies with constraints (1)-(5) and the three path-selection
// heuristics of Figure 3.
//
//   (1) flow conservation: one s_i ~> t_i unit path per statement
//   (2) r_uv * c_uv = sum_i sum_{e in E_i(u,v)} rmin_i * x_e
//   (3) r_max >= r_uv             (4) R_max >= r_uv * c_uv
//   (5) r_max <= 1                (via the bound r_uv in [0,1])
//
// Objectives:
//   weighted_shortest_path : min sum_i sum_link-edges rmin_i * x_e
//   min_max_ratio          : min r_max
//   min_max_reserved       : min R_max
// A small epsilon * sum x_e term is always added so optima never contain
// gratuitous cycles and ties break toward short paths.
#pragma once

#include <string>
#include <vector>

#include "core/logical.h"
#include "mip/mip.h"
#include "util/units.h"

namespace merlin::core {

enum class Heuristic {
    weighted_shortest_path,
    min_max_ratio,
    min_max_reserved,
};

[[nodiscard]] const char* to_string(Heuristic h);

struct Guaranteed_request {
    std::string id;
    Logical_topology logical;
    Bandwidth rate;  // rmin_i; zero means "routed by the MIP, no reservation"
};

struct Placement {
    std::string function;
    topo::NodeId location;

    friend bool operator==(const Placement&, const Placement&) = default;
};

struct Provisioned_path {
    std::string id;
    // Location word satisfying the statement's expression (Lemma 1);
    // consecutive repeats mark multiple functions at one location.
    std::vector<topo::NodeId> word;
    // Physical node path (word with consecutive repeats collapsed).
    std::vector<topo::NodeId> nodes;
    std::vector<topo::LinkId> links;  // links crossed, in order
    std::vector<Placement> placements;
    Bandwidth rate;
};

struct Provision_result {
    bool feasible = false;
    // True only when infeasibility was *proved* (exact solver); the greedy
    // provisioner can fail on feasible instances.
    bool proven_infeasible = false;
    const char* solver = "none";  // "mip", "colgen" or "greedy"
    std::string diagnostic;       // reason when feasible == false
    std::vector<Provisioned_path> paths;
    double r_max = 0;     // max fraction of any link reserved
    Bandwidth big_r_max;  // max bandwidth reserved on any link
    // Statistics for Table 7 / Figure 8.
    int variables = 0;
    int constraints = 0;
    int mip_nodes = 0;
    // LP work underneath the MIP (zero for the greedy solver).
    long long simplex_iterations = 0;
    int lp_factorizations = 0;
    int warm_started_nodes = 0;
    // Heuristic objective value of the selected solution (0 when
    // infeasible or solved greedily). All solver modes minimize the same
    // function, so values are directly comparable across full and colgen
    // runs.
    double objective = 0;
    // Column-generation work counters (zero outside that mode). `lp_bound`
    // is the column-generation dual bound — equal to the full encoding's
    // LP relaxation optimum once pricing converges.
    double lp_bound = 0;
    int colgen_rounds = 0;
    int columns_generated = 0;
    // Number of times a certified mode had to re-solve with the full
    // encoding because its optimality certificate did not close.
    int full_fallbacks = 0;
};

// The encoded provisioning MIP plus the variable maps needed to read a
// solution back.
struct Mip_encoding {
    mip::Problem problem;
    // Per request, per logical edge: the edge's binary variable.
    std::vector<std::vector<int>> edge_vars;
};

// Encodes constraints (1)-(5) and the heuristic objective for `requests`.
// Edges that cross a link currently marked down have their binaries fixed
// to zero.
[[nodiscard]] Mip_encoding encode_provisioning(
    const topo::Topology& topo, const std::vector<Guaranteed_request>& requests,
    Heuristic heuristic);

// Solves the provisioning MIP exactly (the paper's formulation): a cold
// encode_provisioning + branch & bound. Requests must have solvable logical
// topologies (an unsolvable one yields feasible = false immediately).
[[nodiscard]] Provision_result provision(
    const topo::Topology& topo, const std::vector<Guaranteed_request>& requests,
    Heuristic heuristic = Heuristic::weighted_shortest_path,
    const mip::Options& options = {});

// Scalable alternative: sequential path selection (largest guarantee
// first) by Dijkstra over each logical topology with congestion-aware edge
// costs. Orders of magnitude faster than the MIP but may miss solutions on
// tight instances and only approximates the min-max objectives; used for
// large policies and as the fallback when the MIP is truncated.
[[nodiscard]] Provision_result provision_greedy(
    const topo::Topology& topo, const std::vector<Guaranteed_request>& requests,
    Heuristic heuristic = Heuristic::weighted_shortest_path);

// Shared helpers between the full encoder and the column-generation
// solver (src/core/colgen.cpp).
namespace detail {

// The effective objective cost of every (request, logical-edge) binary,
// exactly as encode_provisioning would assign it — same epsilon, same
// jitter stream, same draw order. Every solver mode prices paths against
// these arrays, which is what makes objectives comparable (and the
// colgen certificate sound) across modes.
[[nodiscard]] std::vector<std::vector<double>> request_costs(
    const std::vector<Guaranteed_request>& requests, Heuristic heuristic);

// Walks the selected edges from source to sink, collecting the location
// word, physical path, crossed links and function placements.
[[nodiscard]] Provisioned_path extract_path(const Logical_topology& logical,
                                            std::vector<bool> used,
                                            std::string id, Bandwidth rate);

// Computes the achieved r_max / R_max over `out.paths` (exact, in bps).
void fill_maxima(const topo::Topology& topo, Provision_result& out);

}  // namespace detail

}  // namespace merlin::core
