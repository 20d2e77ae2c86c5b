// Table 7 (the paper's Figure 7): fat-tree provisioning breakdown.
//
// For fat trees of increasing arity, compile all-pairs connectivity with 5%
// of the traffic classes guaranteed, and report the paper's columns:
// traffic classes, hosts, switches, LP construction time, LP solution time,
// and the rateless (sink tree) time — plus the solver work counters
// (simplex iterations, B&B nodes) that explain the wall-clock.
//
// Each tree is provisioned once per solver attack plan: the monolithic MIP
// ("full") and path-based column generation ("colgen"). The full encoding
// is only run where it is tractable (k <= 4); the point of the larger rows
// is that colgen keeps the k=6 and k=8 trees provisionable at all —
// certified against the full encoding's optimum, or honestly counted as a
// fallback.
//
// When MERLIN_BENCH_JSON names a file, the same rows are emitted as
// machine-readable JSON (tools/verify.sh writes BENCH_solver.json under
// build-release/).
//
// Scaling note: the paper drove Gurobi to ~230k classes / 11.5k guaranteed
// on server hardware; our self-contained simplex is exercised on scaled
// instances (the guaranteed count is capped per row below) — the *growth*
// of LP solution time versus class count is the result under test, and the
// full 5% is applied on the smaller trees.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "topo/generators.h"

namespace {

struct Result {
    int k = 0;
    int classes = 0;
    int guaranteed = 0;
    std::string mode;
    double construction_ms = 0;
    double solve_ms = 0;
    double rateless_ms = 0;
    long long simplex_iterations = 0;
    int mip_nodes = 0;
    int warm_started_nodes = 0;
    int colgen_rounds = 0;
    int columns_generated = 0;
    int full_fallbacks = 0;
    std::string solver;
};

void write_json(const char* path, const std::vector<Result>& results) {
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(out, "{\n  \"bench\": \"fattree_table\",\n  \"rows\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result& r = results[i];
        std::fprintf(out,
                     "    {\"k\": %d, \"classes\": %d, \"guaranteed\": %d, "
                     "\"mode\": \"%s\", "
                     "\"lp_construction_ms\": %.3f, \"mip_wall_ms\": %.3f, "
                     "\"rateless_ms\": %.3f, \"simplex_iterations\": %lld, "
                     "\"mip_nodes\": %d, \"warm_started_nodes\": %d, "
                     "\"colgen_rounds\": %d, \"columns\": %d, "
                     "\"full_fallbacks\": %d, "
                     "\"solver\": \"%s\"}%s\n",
                     r.k, r.classes, r.guaranteed, r.mode.c_str(),
                     r.construction_ms, r.solve_ms, r.rateless_ms,
                     r.simplex_iterations, r.mip_nodes, r.warm_started_nodes,
                     r.colgen_rounds, r.columns_generated, r.full_fallbacks,
                     r.solver.c_str(),
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path);
}

}  // namespace

int main() {
    using namespace merlin;

    std::printf(
        "Table 7 — fat trees, 5%% of classes guaranteed (guaranteed count "
        "capped where marked)\n\n");
    std::printf("%8s %10s %6s %8s %8s %13s %16s %12s %10s %6s %s\n",
                "classes", "guaranteed", "hosts", "switches", "mode",
                "LP constr(ms)", "LP solution(ms)", "rateless(ms)",
                "simplex-it", "nodes", "");

    struct Row {
        int k;
        int guaranteed_cap;
    };
    // MERLIN_BENCH_TINY restricts the sweep to the two smallest instances
    // (k=4 is the first row the MIP does real work on), so CI can smoke-test
    // the harness and record a solver datapoint without paying for the
    // k=6/k=8 trees.
    std::vector<Row> rows{Row{2, 64}, Row{4, 64}, Row{6, 1024},
                          Row{8, 1024}};
    if (std::getenv("MERLIN_BENCH_TINY") != nullptr) rows.resize(2);
    std::vector<Result> results;
    for (const Row row : rows) {
        const topo::Topology t = topo::fat_tree(row.k);
        const auto hosts = static_cast<int>(t.hosts().size());
        const int classes = hosts * (hosts - 1);
        const int five_percent = std::max(classes / 20, 1);
        const int guaranteed = std::min(five_percent, row.guaranteed_cap);

        const ir::Policy policy =
            bench::all_pairs_policy(t, guaranteed, mb_per_sec(1));

        // The monolithic encoding carries one binary per (request, logical
        // edge): tractable through k=4, pointless to wait on beyond it.
        std::vector<core::Solver_mode> modes{core::Solver_mode::colgen};
        if (row.k <= 4)
            modes.insert(modes.begin(), core::Solver_mode::full);

        for (const core::Solver_mode mode : modes) {
            core::Compile_options options = bench::scalability_options();
            options.solver = core::Solver::mip;  // bypass the auto limit
            options.solver_mode = mode;
            const core::Compilation c = core::compile(policy, t, options);
            if (!c.feasible) {
                std::printf("k=%d [%s] INFEASIBLE: %s\n", row.k,
                            core::to_string(mode), c.diagnostic.c_str());
                continue;
            }
            std::printf(
                "%8d %10d %6d %8zu %8s %13.1f %16.1f %12.1f %10lld %6d  "
                "[%s]%s\n",
                classes, guaranteed, hosts, t.switches().size(),
                core::to_string(mode), c.timing.lp_construction_ms,
                c.timing.lp_solve_ms, c.timing.rateless_ms,
                c.provision.simplex_iterations, c.provision.mip_nodes,
                c.provision.solver,
                guaranteed < five_percent ? " (capped)" : "");
            Result r;
            r.k = row.k;
            r.classes = classes;
            r.guaranteed = guaranteed;
            r.mode = core::to_string(mode);
            r.construction_ms = c.timing.lp_construction_ms;
            r.solve_ms = c.timing.lp_solve_ms;
            r.rateless_ms = c.timing.rateless_ms;
            r.simplex_iterations = c.provision.simplex_iterations;
            r.mip_nodes = c.provision.mip_nodes;
            r.warm_started_nodes = c.provision.warm_started_nodes;
            r.colgen_rounds = c.provision.colgen_rounds;
            r.columns_generated = c.provision.columns_generated;
            r.full_fallbacks = c.provision.full_fallbacks;
            r.solver = c.provision.solver;
            results.push_back(r);
        }
    }
    std::printf(
        "\npaper (server-class machine, Gurobi): 870 classes -> 25/22/33 ms; "
        "28730 -> 364/252/106 ms;\n95790 -> 13.3s/249s/0.2s; 229920 -> "
        "86.7s/10476s/0.5s — same super-linear LP-solution growth\n");

    if (const char* json_path = std::getenv("MERLIN_BENCH_JSON"))
        write_json(json_path, results);
    return 0;
}
