#include "core/colgen.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <utility>

#include "util/error.h"

namespace merlin::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Cost of the artificial columns (one per convexity row) and of the
// per-link overflow variables: large enough that any real solution beats
// any artificial one, small enough to stay inside simplex numerics. An
// answer carrying a nonzero artificial never certifies, so a marginal M
// only costs a fallback, never correctness.
constexpr double kBigM = 1e8;
constexpr double kArtificialTol = 1e-6;
// Pricing stops after this many master solves (uncertified if it has not
// dried up by then); a path prices in below -kPricingTol reduced cost.
constexpr int kMaxRounds = 200;
constexpr double kPricingTol = 1e-6;

bool edge_usable(const topo::Topology& topo, const Logical_edge& edge) {
    return edge.link == topo::kNoLink || topo.link_up(edge.link);
}

// Cost-only Dijkstra over one request's logical graph (all costs are
// positive), skipping edges over down links. Returns the edge ids of the
// shortest s~>t path, or nullopt when the sink is unreachable: the seed
// column of the restricted master.
std::optional<std::vector<int>> shortest_path_edges(
    const topo::Topology& topo, const Logical_topology& logical,
    const std::vector<double>& edge_costs) {
    const int vertices = logical.graph.vertex_count();
    std::vector<double> dist(static_cast<std::size_t>(vertices), kInf);
    std::vector<int> pred(static_cast<std::size_t>(vertices), -1);
    using Item = std::pair<double, graph::Vertex>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
    dist[static_cast<std::size_t>(logical.source)] = 0;
    queue.emplace(0.0, logical.source);
    while (!queue.empty()) {
        const auto [d, v] = queue.top();
        queue.pop();
        if (d > dist[static_cast<std::size_t>(v)]) continue;
        if (v == logical.sink) break;
        for (graph::Edge e : logical.graph.out_edges(v)) {
            if (!edge_usable(topo, logical.edges[static_cast<std::size_t>(e)]))
                continue;
            const graph::Vertex to = logical.graph.target(e);
            const double nd = d + edge_costs[static_cast<std::size_t>(e)];
            if (nd < dist[static_cast<std::size_t>(to)]) {
                dist[static_cast<std::size_t>(to)] = nd;
                pred[static_cast<std::size_t>(to)] = e;
                queue.emplace(nd, to);
            }
        }
    }
    if (dist[static_cast<std::size_t>(logical.sink)] == kInf)
        return std::nullopt;
    std::vector<int> edges;
    for (graph::Vertex at = logical.sink; at != logical.source;) {
        const int e = pred[static_cast<std::size_t>(at)];
        edges.push_back(e);
        at = logical.graph.source(e);
    }
    std::reverse(edges.begin(), edges.end());
    return edges;
}

double path_cost(const std::vector<int>& edges,
                 const std::vector<double>& edge_costs) {
    double total = 0;
    for (int e : edges) total += edge_costs[static_cast<std::size_t>(e)];
    return total;
}

// Reservations accumulated exactly in integer bps against the true link
// capacities — the same discipline the full encoding's equality rows and
// the testgen capacity oracle enforce. The master's overflow variables are
// only tolerance-zero, so certified answers re-verify exactly here.
bool within_capacity(const topo::Topology& topo,
                     const std::vector<Provisioned_path>& paths) {
    std::vector<std::uint64_t> reserved(
        static_cast<std::size_t>(topo.link_count()), 0);
    for (const Provisioned_path& p : paths)
        for (topo::LinkId link : p.links)
            reserved[static_cast<std::size_t>(link)] += p.rate.bps();
    for (topo::LinkId link = 0; link < topo.link_count(); ++link)
        if (reserved[static_cast<std::size_t>(link)] >
            topo.link(link).capacity.bps())
            return false;
    return true;
}

// Adding columns to the master shifts the internal slack block of a basis
// snapshot (slacks sit after the structurals); renumber so the previous
// vertex — old basis, new columns nonbasic at zero — warm-starts the next
// round's solve without a phase 1.
void remap_basis(lp::Basis& basis, int old_vars, int new_vars) {
    if (basis.empty() || new_vars == old_vars) return;
    const int shift = new_vars - old_vars;
    for (int& v : basis.basic)
        if (v >= old_vars) v += shift;
    std::vector<std::uint8_t> at_upper(
        basis.at_upper.size() + static_cast<std::size_t>(shift), 0);
    for (std::size_t j = 0; j < basis.at_upper.size(); ++j) {
        const std::size_t to =
            j < static_cast<std::size_t>(old_vars)
                ? j
                : j + static_cast<std::size_t>(shift);
        at_upper[to] = basis.at_upper[j];
    }
    basis.at_upper = std::move(at_upper);
}

// The restricted master plus everything needed to extend and decode it.
struct Master {
    mip::Problem problem;
    int r_max_var = -1;
    int big_r_max_var = -1;
    std::vector<int> link_row;      // physical link -> bookkeeping row
    std::vector<int> overflow_var;  // physical link -> overflow artificial
    std::vector<int> convexity_row;
    std::vector<int> artificial_var;  // per request

    struct Column {
        int request;
        std::vector<int> edges;
        int var;
    };
    std::vector<Column> columns;
    std::vector<std::set<std::vector<int>>> seen;
};

Master build_master(const topo::Topology& topo,
                    const std::vector<Guaranteed_request>& requests,
                    Heuristic heuristic) {
    Master m;
    m.r_max_var = m.problem.add_continuous(
        heuristic == Heuristic::min_max_ratio ? 1000.0 : 0.0, 0.0, 1.0);
    m.big_r_max_var = m.problem.add_continuous(
        heuristic == Heuristic::min_max_reserved ? 1.0 : 0.0, 0.0,
        lp::kInfinity);
    m.link_row.assign(static_cast<std::size_t>(topo.link_count()), -1);
    m.overflow_var.assign(static_cast<std::size_t>(topo.link_count()), -1);
    for (topo::LinkId link = 0; link < topo.link_count(); ++link) {
        const auto l = static_cast<std::size_t>(link);
        const double capacity = topo.link(link).capacity.mbps();
        const int overflow = m.problem.add_continuous(kBigM, 0.0,
                                                      lp::kInfinity);
        m.overflow_var[l] = overflow;
        m.link_row[l] = m.problem.relaxation().constraint_count();
        if (capacity > 0) {
            // r_uv * c_uv + o_uv - sum_p rate occ y_p = 0, r_uv in [0,1].
            const int r_uv = m.problem.add_continuous(0.0, 0.0, 1.0);
            m.problem.add_constraint(lp::Sense::equal, 0.0,
                                     {{r_uv, capacity}, {overflow, 1.0}});
            m.problem.add_constraint(lp::Sense::less_equal, 0.0,
                                     {{r_uv, 1.0}, {m.r_max_var, -1.0}});
            m.problem.add_constraint(
                lp::Sense::less_equal, 0.0,
                {{r_uv, capacity}, {m.big_r_max_var, -1.0}});
        } else {
            // A zero-capacity link: any use must go through the overflow
            // artificial, i.e. is effectively forbidden.
            m.problem.add_constraint(lp::Sense::equal, 0.0,
                                     {{overflow, 1.0}});
        }
    }
    m.convexity_row.reserve(requests.size());
    m.artificial_var.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const int artificial = m.problem.add_continuous(kBigM, 0.0, 1.0);
        m.artificial_var.push_back(artificial);
        m.convexity_row.push_back(m.problem.relaxation().constraint_count());
        m.problem.add_constraint(lp::Sense::equal, 1.0, {{artificial, 1.0}});
    }
    m.seen.resize(requests.size());
    return m;
}

void add_column(Master& m, const std::vector<Guaranteed_request>& requests,
                int request, std::vector<int> edges, double cost) {
    const auto i = static_cast<std::size_t>(request);
    const int var = m.problem.add_binary(cost);
    m.problem.set_coefficient(m.convexity_row[i], var, 1.0);
    const double rate = requests[i].rate.mbps();
    if (rate > 0) {
        std::map<topo::LinkId, int> occurrences;
        for (int e : edges) {
            const topo::LinkId link =
                requests[i].logical.edges[static_cast<std::size_t>(e)].link;
            if (link != topo::kNoLink) ++occurrences[link];
        }
        for (const auto& [link, count] : occurrences)
            m.problem.set_coefficient(
                m.link_row[static_cast<std::size_t>(link)], var,
                -rate * count);
    }
    m.seen[i].insert(edges);
    m.columns.push_back({request, std::move(edges), var});
}

// Column generation proper. The result is feasible only when certified;
// otherwise provision_colgen keeps just its work counters and re-solves in
// full.
Provision_result run_colgen(const topo::Topology& topo,
                            const std::vector<Guaranteed_request>& requests,
                            Heuristic heuristic, const mip::Options& options) {
    Provision_result result;
    result.solver = "colgen";
    const std::vector<std::vector<double>> costs =
        detail::request_costs(requests, heuristic);

    Master master = build_master(topo, requests, heuristic);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        auto seed = shortest_path_edges(topo, requests[i].logical, costs[i]);
        if (seed.has_value()) {
            const double cost = path_cost(*seed, costs[i]);
            add_column(master, requests, static_cast<int>(i),
                       std::move(*seed), cost);
        }
        // Unreachable sinks keep their artificial: never certifies, and
        // the full-encoding fallback owns the infeasibility proof.
    }

    // Master-solve -> price -> add-columns until nothing prices out.
    lp::Basis basis;
    int basis_vars = 0;
    bool converged = false;
    double dual_bound = 0;
    for (int round = 1; round <= kMaxRounds; ++round) {
        result.colgen_rounds = round;
        const lp::Problem& relaxation = master.problem.relaxation();
        remap_basis(basis, basis_vars, relaxation.variable_count());
        basis_vars = relaxation.variable_count();
        const lp::Solution rmp =
            lp::solve(relaxation, options.lp, basis.empty() ? nullptr : &basis);
        result.simplex_iterations += rmp.stats.iterations;
        result.lp_factorizations += rmp.stats.factorizations;
        if (rmp.status != lp::Status::optimal) break;  // uncertified
        basis = rmp.basis;
        dual_bound = rmp.objective;

        std::vector<double> pi(static_cast<std::size_t>(topo.link_count()));
        for (topo::LinkId link = 0; link < topo.link_count(); ++link)
            pi[static_cast<std::size_t>(link)] =
                rmp.duals[static_cast<std::size_t>(
                    master.link_row[static_cast<std::size_t>(link)])];
        int added = 0;
        bool unsound = false;
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const double sigma = rmp.duals[static_cast<std::size_t>(
                master.convexity_row[i])];
            const auto priced =
                price_request(topo, requests[i].logical, costs[i],
                              requests[i].rate.mbps(), pi, sigma);
            if (!priced.has_value()) {
                unsound = true;  // negative-cycle suspicion
                continue;
            }
            if (priced->edges.empty()) continue;  // sink unreachable
            if (priced->reduced_cost < -kPricingTol &&
                master.seen[i].count(priced->edges) == 0) {
                add_column(master, requests, static_cast<int>(i),
                           priced->edges, priced->cost);
                ++added;
            }
        }
        if (added == 0) {
            converged = !unsound;
            break;
        }
    }
    result.columns_generated = static_cast<int>(master.columns.size());
    if (converged) result.lp_bound = dual_bound;

    // Price-and-branch: branch & bound over the generated columns, warm
    // started from the converged master basis (no pricing inside the tree).
    remap_basis(basis, basis_vars,
                master.problem.relaxation().variable_count());
    mip::Solution integer = mip::solve(master.problem, options,
                                       basis.empty() ? nullptr : &basis);
    result.variables = master.problem.variable_count();
    result.constraints = master.problem.relaxation().constraint_count();
    result.mip_nodes = integer.nodes_explored;
    result.simplex_iterations += integer.simplex_iterations;
    result.lp_factorizations += integer.lp_factorizations;
    result.warm_started_nodes = integer.warm_started_nodes;
    if (!integer.usable()) return result;

    double artificial_load = 0;
    for (std::size_t i = 0; i < requests.size(); ++i)
        artificial_load = std::max(
            artificial_load,
            integer.x[static_cast<std::size_t>(master.artificial_var[i])]);
    for (topo::LinkId link = 0; link < topo.link_count(); ++link)
        artificial_load = std::max(
            artificial_load,
            integer.x[static_cast<std::size_t>(
                master.overflow_var[static_cast<std::size_t>(link)])]);
    if (artificial_load > kArtificialTol) return result;

    double objective = 0;
    result.paths.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Master::Column* chosen = nullptr;
        for (const Master::Column& c : master.columns) {
            if (c.request != static_cast<int>(i)) continue;
            if (integer.x[static_cast<std::size_t>(c.var)] > 0.5) {
                chosen = &c;
                break;
            }
        }
        expects(chosen != nullptr,
                "a zero-artificial master solution selects one path per "
                "request");
        objective += path_cost(chosen->edges, costs[i]);
        std::vector<bool> used(
            static_cast<std::size_t>(
                requests[i].logical.graph.edge_count()),
            false);
        for (int e : chosen->edges) used[static_cast<std::size_t>(e)] = true;
        result.paths.push_back(detail::extract_path(requests[i].logical,
                                                    std::move(used),
                                                    requests[i].id,
                                                    requests[i].rate));
    }
    // The master's tolerance-zero overflows are not proof enough;
    // re-verify the reservations exactly against the true capacities.
    if (!within_capacity(topo, result.paths)) return result;
    detail::fill_maxima(topo, result);
    // Recompute the objective from the selected paths and maxima rather
    // than trusting integer.objective: a basic-at-zero artificial can
    // carry kBigM-scaled float noise into the solver's objective value.
    if (heuristic == Heuristic::min_max_ratio)
        objective += 1000.0 * result.r_max;
    else if (heuristic == Heuristic::min_max_reserved)
        objective += result.big_r_max.mbps();
    result.objective = objective;
    result.feasible = converged &&
                      objective - dual_bound <=
                          kCertTol * (1 + std::abs(dual_bound));
    return result;
}

bool all_solvable(const std::vector<Guaranteed_request>& requests) {
    return std::all_of(requests.begin(), requests.end(),
                       [](const Guaranteed_request& r) {
                           return r.logical.solvable();
                       });
}

}  // namespace

std::optional<Priced_path> price_request(const topo::Topology& topo,
                                         const Logical_topology& logical,
                                         const std::vector<double>& edge_costs,
                                         double rate_mbps,
                                         const std::vector<double>& pi,
                                         double sigma) {
    // Bellman-Ford: dual-adjusted weights can be negative, so Dijkstra is
    // out; the product graphs are small and near-acyclic, so the V passes
    // are cheap. A pass count past V means a reachable negative cycle —
    // the search is then unsound and the caller gives up certification.
    const int vertices = logical.graph.vertex_count();
    const int edge_count = logical.graph.edge_count();
    std::vector<double> dist(static_cast<std::size_t>(vertices), kInf);
    std::vector<int> pred(static_cast<std::size_t>(vertices), -1);
    dist[static_cast<std::size_t>(logical.source)] = 0;
    std::vector<double> weight(static_cast<std::size_t>(edge_count), 0.0);
    for (int e = 0; e < edge_count; ++e) {
        const Logical_edge& edge = logical.edges[static_cast<std::size_t>(e)];
        double w = edge_costs[static_cast<std::size_t>(e)];
        if (edge.link != topo::kNoLink && rate_mbps > 0)
            w += rate_mbps * pi[static_cast<std::size_t>(edge.link)];
        weight[static_cast<std::size_t>(e)] = w;
    }
    for (int pass = 0;; ++pass) {
        if (pass > vertices) return std::nullopt;
        bool changed = false;
        for (int e = 0; e < edge_count; ++e) {
            const Logical_edge& edge =
                logical.edges[static_cast<std::size_t>(e)];
            if (!edge_usable(topo, edge)) continue;
            const auto from =
                static_cast<std::size_t>(logical.graph.source(e));
            if (dist[from] == kInf) continue;
            const auto to = static_cast<std::size_t>(logical.graph.target(e));
            const double nd = dist[from] + weight[static_cast<std::size_t>(e)];
            if (nd < dist[to] - 1e-12) {
                dist[to] = nd;
                pred[to] = e;
                changed = true;
            }
        }
        if (!changed) break;
    }
    Priced_path path;
    if (dist[static_cast<std::size_t>(logical.sink)] == kInf) {
        path.reduced_cost = kInf;
        return path;  // unreachable: empty edges, nothing to price in
    }
    int steps = 0;
    for (graph::Vertex at = logical.sink; at != logical.source;) {
        if (++steps > edge_count + 1) return std::nullopt;
        const int e = pred[static_cast<std::size_t>(at)];
        path.edges.push_back(e);
        at = logical.graph.source(e);
    }
    std::reverse(path.edges.begin(), path.edges.end());
    path.cost = path_cost(path.edges, edge_costs);
    path.reduced_cost =
        dist[static_cast<std::size_t>(logical.sink)] - sigma;
    return path;
}

Provision_result provision_colgen(const topo::Topology& topo,
                                  const std::vector<Guaranteed_request>& requests,
                                  Heuristic heuristic,
                                  const mip::Options& options) {
    if (requests.empty() || !all_solvable(requests))
        return provision(topo, requests, heuristic, options);
    Provision_result colgen = run_colgen(topo, requests, heuristic, options);
    if (colgen.feasible) return colgen;
    // Certificate did not close (tight instance, pricing cycle, node
    // limit, or genuine infeasibility): the full encoding is the oracle —
    // and the only place a *proof* of infeasibility can come from.
    Provision_result full = provision(topo, requests, heuristic, options);
    full.colgen_rounds = colgen.colgen_rounds;
    full.columns_generated = colgen.columns_generated;
    full.full_fallbacks = 1;
    return full;
}

}  // namespace merlin::core
