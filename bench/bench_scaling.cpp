// Figure 8: compilation time versus number of traffic classes.
//
//   (a) all-pairs connectivity on balanced trees         (rateless)
//   (b) 5% guaranteed on balanced trees                  (MIP)
//   (c) all-pairs connectivity on fat trees              (rateless)
//   (d) 5% guaranteed on fat trees                       (MIP)
//
// Classes are ordered host pairs, as in the paper. Guaranteed counts are
// capped on the largest instances (our simplex replaces Gurobi); the curve
// shapes — near-linear rateless growth, super-linear MIP growth — are the
// reproduction target.
//
// When MERLIN_BENCH_JSON names a file, the fat-tree all-pairs sweep (c)
// also emits its rows as JSON (classes, preprocess/lp_construction/
// rateless ms, threads); tools/verify.sh writes BENCH_compile.json under
// build-release/. MERLIN_BENCH_TINY restricts every sweep to
// its two smallest instances for the smoke check. MERLIN_THREADS controls
// the front-end thread count under test.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "topo/generators.h"

namespace {

using namespace merlin;

struct Compile_row {
    int classes = 0;
    int hosts = 0;
    int threads = 0;
    double preprocess_ms = 0;
    double lp_construction_ms = 0;
    double rateless_ms = 0;
    double wall_ms = 0;
};

void write_json(const char* path, const std::vector<Compile_row>& rows) {
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(out, "{\n  \"bench\": \"compile_frontend\",\n  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Compile_row& r = rows[i];
        std::fprintf(out,
                     "    {\"classes\": %d, \"hosts\": %d, \"threads\": %d, "
                     "\"preprocess_ms\": %.3f, \"lp_construction_ms\": %.3f, "
                     "\"rateless_ms\": %.3f, \"wall_ms\": %.3f}%s\n",
                     r.classes, r.hosts, r.threads, r.preprocess_ms,
                     r.lp_construction_ms, r.rateless_ms, r.wall_ms,
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path);
}

void sweep(const char* title, const std::vector<topo::Topology>& topologies,
           bool guaranteed, std::vector<Compile_row>* record = nullptr) {
    std::printf("%s\n", title);
    std::printf("%10s %8s %10s %14s\n", "classes", "hosts", "guaranteed",
                "time(ms)");
    for (const topo::Topology& t : topologies) {
        const auto hosts = static_cast<int>(t.hosts().size());
        const int classes = hosts * (hosts - 1);
        const int wanted = guaranteed ? std::max(classes / 20, 1) : 0;
        const int granted = std::min(wanted, 1024);
        const ir::Policy policy =
            bench::all_pairs_policy(t, granted, mb_per_sec(1));
        const bench::Stopwatch watch;
        const core::Compilation c =
            core::compile(policy, t, bench::scalability_options());
        const double ms = watch.ms();
        if (!c.feasible) {
            std::printf("%10d INFEASIBLE: %s\n", classes,
                        c.diagnostic.c_str());
            continue;
        }
        std::printf("%10d %8d %10d %14.1f  [%s]%s\n", classes, hosts,
                    granted, ms,
                    guaranteed ? c.provision.solver : "rateless",
                    granted < wanted ? " (guarantees capped)" : "");
        if (record != nullptr) {
            Compile_row row;
            row.classes = classes;
            row.hosts = hosts;
            row.threads = c.threads_used;
            row.preprocess_ms = c.timing.preprocess_ms;
            row.lp_construction_ms = c.timing.lp_construction_ms;
            row.rateless_ms = c.timing.rateless_ms;
            row.wall_ms = ms;
            record->push_back(row);
        }
    }
    std::printf("\n");
}

}  // namespace

int main() {
    std::printf("Figure 8 — compilation time vs number of traffic classes\n\n");
    const bool tiny = std::getenv("MERLIN_BENCH_TINY") != nullptr;

    // Balanced trees have no path diversity, so the guaranteed workload only
    // fits with fat 10G links (a tree of 1G links cannot carry 5% guarantees
    // across its root whatever the solver does).
    std::vector<topo::Topology> balanced;
    for (const auto& [depth, fanout, leaf_hosts] :
         std::vector<std::tuple<int, int, int>>{
             {2, 3, 2}, {2, 4, 3}, {3, 3, 3}, {3, 4, 3}, {3, 4, 6}})
        balanced.push_back(
            topo::balanced_tree(depth, fanout, leaf_hosts, gbps(10)));

    std::vector<topo::Topology> fat;
    for (int k : {2, 4, 6, 8}) fat.push_back(topo::fat_tree(k));
    if (tiny) {
        balanced.resize(2);
        fat.resize(2);
    }

    std::vector<Compile_row> frontend_rows;
    sweep("(a) balanced trees, all-pairs best-effort", balanced, false);
    sweep("(b) balanced trees, 5% guaranteed", balanced, true);
    sweep("(c) fat trees, all-pairs best-effort", fat, false,
          &frontend_rows);
    sweep("(d) fat trees, 5% guaranteed", fat, true);

    std::printf(
        "paper: rateless curves grow gently with classes; guaranteed curves "
        "grow super-linearly\n(41 minutes at 400k classes / 20k guarantees "
        "on their testbed)\n");

    if (const char* json_path = std::getenv("MERLIN_BENCH_JSON"))
        write_json(json_path, frontend_rows);
    return 0;
}
