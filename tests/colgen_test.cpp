// Column-generation provisioning: the pricing subproblem against a
// brute-force enumeration of every simple path through the NFA x topology
// product, convergence to the full encoding's proven LP optimum, and
// objective / infeasibility parity with the monolithic MIP.
#include "core/colgen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/logical.h"
#include "lp/simplex.h"
#include "parser/parser.h"
#include "topo/generators.h"
#include "topo/parse.h"

namespace merlin::core {
namespace {

topo::Topology two_paths() {
    return topo::parse_topology(R"(
host h1
host h2
switch a1
switch a2
switch b1
link h1 a1 400MB/s
link a1 a2 400MB/s
link a2 h2 400MB/s
link h1 b1 100MB/s
link b1 h2 100MB/s
)");
}

// One `.*` request per (source, sink) pair, all at `rate`.
std::vector<Guaranteed_request> make_requests(
    const topo::Topology& t,
    const std::vector<std::pair<topo::NodeId, topo::NodeId>>& pairs,
    Bandwidth rate) {
    const automata::Alphabet alphabet = make_alphabet(t);
    auto nfa = automata::remove_epsilon(
        automata::thompson(parser::parse_path(".*"), alphabet));
    nfa = automata::to_nfa(automata::minimize(automata::determinize(nfa)));
    std::vector<Guaranteed_request> out;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        Guaranteed_request r;
        r.id = "g" + std::to_string(i);
        r.rate = rate;
        r.logical = build_logical(t, nfa, pairs[i].first, pairs[i].second);
        out.push_back(std::move(r));
    }
    return out;
}

// n requests h1 -> h2 on two_paths().
std::vector<Guaranteed_request> make_requests(const topo::Topology& t, int n,
                                              Bandwidth rate) {
    return make_requests(
        t, {static_cast<std::size_t>(n), {t.require("h1"), t.require("h2")}},
        rate);
}

// A fat tree k=4 mix of intra-pod and cross-pod requests at 2MB/s.
std::vector<Guaranteed_request> fat_tree_requests(const topo::Topology& t) {
    const auto hosts = t.hosts();
    std::vector<std::pair<topo::NodeId, topo::NodeId>> pairs;
    for (const auto& [a, b] : std::vector<std::pair<int, int>>{
             {0, 1}, {2, 3}, {0, 5}, {7, 2}, {4, 6}, {1, 3}})
        pairs.emplace_back(hosts[static_cast<std::size_t>(a)],
                           hosts[static_cast<std::size_t>(b)]);
    return make_requests(t, pairs, mb_per_sec(2));
}

// Every simple s~>t path through the product graph, by DFS.
void enumerate_paths(const Logical_topology& logical, graph::Vertex at,
                     std::vector<bool>& visited, std::vector<int>& edges,
                     std::vector<std::vector<int>>& out) {
    if (at == logical.sink) {
        out.push_back(edges);
        return;
    }
    visited[static_cast<std::size_t>(at)] = true;
    for (graph::Edge e : logical.graph.out_edges(at)) {
        const graph::Vertex to = logical.graph.target(e);
        if (visited[static_cast<std::size_t>(to)]) continue;
        edges.push_back(e);
        enumerate_paths(logical, to, visited, edges, out);
        edges.pop_back();
    }
    visited[static_cast<std::size_t>(at)] = false;
}

TEST(ColgenCosts, MatchTheFullEncodingBitForBit) {
    const topo::Topology t = two_paths();
    auto requests = make_requests(t, 3, mb_per_sec(40));
    requests[1].rate = mb_per_sec(250);  // distinct weights exercise wsp
    for (const Heuristic h : {Heuristic::weighted_shortest_path,
                              Heuristic::min_max_ratio,
                              Heuristic::min_max_reserved}) {
        const Mip_encoding encoding = encode_provisioning(t, requests, h);
        const auto costs = detail::request_costs(requests, h);
        ASSERT_EQ(costs.size(), requests.size());
        for (std::size_t i = 0; i < requests.size(); ++i)
            for (std::size_t e = 0; e < costs[i].size(); ++e)
                EXPECT_EQ(costs[i][e],
                          encoding.problem.relaxation().cost(
                              encoding.edge_vars[i][e]))
                    << to_string(h) << " request " << i << " edge " << e;
    }
}

TEST(ColgenPricer, MatchesBruteForceMinimumReducedCost) {
    const topo::Topology t = two_paths();
    const auto requests = make_requests(t, 1, mb_per_sec(40));
    const Logical_topology& logical = requests[0].logical;
    const auto costs = detail::request_costs(requests,
                                             Heuristic::weighted_shortest_path);

    std::vector<std::vector<int>> all_paths;
    {
        std::vector<bool> visited(
            static_cast<std::size_t>(logical.graph.vertex_count()), false);
        std::vector<int> edges;
        enumerate_paths(logical, logical.source, visited, edges, all_paths);
    }
    ASSERT_GE(all_paths.size(), 2u);  // both physical routes appear

    // A few dual vectors, including negative link prices (the master's
    // bookkeeping rows are equalities, so either sign occurs in practice).
    const double rate = requests[0].rate.mbps();
    std::vector<std::vector<double>> dual_sets;
    dual_sets.emplace_back(static_cast<std::size_t>(t.link_count()), 0.0);
    std::vector<double> mixed(static_cast<std::size_t>(t.link_count()));
    for (std::size_t l = 0; l < mixed.size(); ++l)
        mixed[l] = (l % 2 == 0 ? 1.0 : -1.0) * 0.03 *
                   static_cast<double>(l + 1);
    dual_sets.push_back(std::move(mixed));
    for (const auto& pi : dual_sets) {
        for (const double sigma : {0.0, 123.456}) {
            const auto priced =
                price_request(t, logical, costs[0], rate, pi, sigma);
            ASSERT_TRUE(priced.has_value());
            ASSERT_FALSE(priced->edges.empty());
            double best = std::numeric_limits<double>::infinity();
            for (const auto& path : all_paths) {
                double w = 0;
                for (int e : path) {
                    w += costs[0][static_cast<std::size_t>(e)];
                    const topo::LinkId link =
                        logical.edges[static_cast<std::size_t>(e)].link;
                    if (link != topo::kNoLink)
                        w += rate * pi[static_cast<std::size_t>(link)];
                }
                best = std::min(best, w - sigma);
            }
            EXPECT_NEAR(priced->reduced_cost, best, 1e-9);
            // The returned path itself achieves the minimum.
            double achieved = -sigma;
            for (int e : priced->edges) {
                achieved += costs[0][static_cast<std::size_t>(e)];
                const topo::LinkId link =
                    logical.edges[static_cast<std::size_t>(e)].link;
                if (link != topo::kNoLink)
                    achieved += rate * pi[static_cast<std::size_t>(link)];
            }
            EXPECT_NEAR(achieved, best, 1e-9);
        }
    }
}

TEST(Colgen, TerminatesWithTheFullEncodingsLpOptimum) {
    const topo::Topology t = two_paths();
    const Heuristic h = Heuristic::weighted_shortest_path;
    const auto requests = make_requests(t, 2, mb_per_sec(50));
    const Mip_encoding encoding = encode_provisioning(t, requests, h);
    const lp::Solution full_lp = lp::solve(encoding.problem.relaxation());
    ASSERT_EQ(full_lp.status, lp::Status::optimal);

    const Provision_result r = provision_colgen(t, requests, h);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.full_fallbacks, 0);
    EXPECT_STREQ(r.solver, "colgen");
    EXPECT_GE(r.colgen_rounds, 1);
    EXPECT_GE(r.columns_generated, static_cast<int>(requests.size()));
    // Pricing dried up, so the master LP value is the *proven* LP
    // optimum — the same bound the full relaxation reaches.
    EXPECT_NEAR(r.lp_bound, full_lp.objective,
                1e-6 * (1 + std::abs(full_lp.objective)));
}

// min-max-ratio carries an LP integrality gap on two_paths: the relaxation
// splits 2 x 50MB/s as 80/20 across the 400/100 routes (max ratio 0.2),
// which no integral path assignment reaches (best is 0.25). The optimality
// certificate cannot close over priced-in columns alone, so colgen must
// *refuse* to certify and fall back rather than return the restricted
// master's integer answer. min-max-reserved has no gap here (a one-request-
// per-route split reserves 50 on both access links, matching the LP), so it
// must certify without the fallback. Either way the objective is the full
// encoding's.
TEST(Colgen, MinMaxGapForcesFallbackOnlyWhereItExists) {
    const topo::Topology t = two_paths();
    const auto requests = make_requests(t, 2, mb_per_sec(50));

    const Provision_result ratio =
        provision_colgen(t, requests, Heuristic::min_max_ratio);
    ASSERT_TRUE(ratio.feasible);
    EXPECT_EQ(ratio.full_fallbacks, 1);

    const Provision_result reserved =
        provision_colgen(t, requests, Heuristic::min_max_reserved);
    ASSERT_TRUE(reserved.feasible);
    EXPECT_EQ(reserved.full_fallbacks, 0);
    EXPECT_STREQ(reserved.solver, "colgen");

    for (const Heuristic h :
         {Heuristic::min_max_ratio, Heuristic::min_max_reserved}) {
        const Provision_result r = provision_colgen(t, requests, h);
        const Provision_result full = provision(t, requests, h);
        EXPECT_NEAR(r.objective, full.objective,
                    1e-4 * (1 + std::abs(full.objective)))
            << to_string(h);
    }
}

// Objective parity with the full encoding under every heuristic, and
// capacity discipline, exactly, in bps.
void expect_matches_full(const topo::Topology& t,
                         const std::vector<Guaranteed_request>& requests) {
    for (const Heuristic h : {Heuristic::weighted_shortest_path,
                              Heuristic::min_max_ratio,
                              Heuristic::min_max_reserved}) {
        const Provision_result full = provision(t, requests, h);
        const Provision_result cg = provision_colgen(t, requests, h);
        ASSERT_TRUE(full.feasible) << to_string(h);
        ASSERT_TRUE(cg.feasible) << to_string(h);
        EXPECT_NEAR(cg.objective, full.objective,
                    1e-4 * (1 + std::abs(full.objective)))
            << to_string(h);
        std::vector<std::uint64_t> reserved(
            static_cast<std::size_t>(t.link_count()), 0);
        for (const auto& p : cg.paths)
            for (topo::LinkId l : p.links)
                reserved[static_cast<std::size_t>(l)] += p.rate.bps();
        for (topo::LinkId l = 0; l < t.link_count(); ++l)
            EXPECT_LE(reserved[static_cast<std::size_t>(l)],
                      t.link(l).capacity.bps());
    }
}

TEST(Colgen, MatchesFullObjectiveAcrossHeuristics) {
    // 5 x 40MB/s does not fit one two_paths route: forces a split across
    // both.
    const topo::Topology paths = two_paths();
    expect_matches_full(paths, make_requests(paths, 5, mb_per_sec(40)));
    // The fat tree mixes requests within a pod and across the core.
    const topo::Topology fat = topo::fat_tree(4);
    expect_matches_full(fat, fat_tree_requests(fat));
}

TEST(Colgen, ReportsTheSameInfeasibility) {
    const topo::Topology t = two_paths();
    const auto requests = make_requests(t, 7, mb_per_sec(80));
    const Provision_result full = provision(t, requests);
    const Provision_result cg = provision_colgen(t, requests);
    EXPECT_FALSE(full.feasible);
    EXPECT_TRUE(full.proven_infeasible);
    EXPECT_FALSE(cg.feasible);
    // The proof always comes from the full-encoding fallback.
    EXPECT_TRUE(cg.proven_infeasible);
    EXPECT_EQ(cg.full_fallbacks, 1);
}

}  // namespace
}  // namespace merlin::core
