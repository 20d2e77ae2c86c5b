// ROADMAP item 2: predicate sharing at "millions of users" scale.
//
// Sweeps 10^5-statement policies whose predicates are drawn from a much
// smaller distinct pool (the shape foreach-sugar and per-tenant templates
// produce), heavy with overlap (broad ip.proto/ip.src classes crossing the
// per-port tests), and measures what sharing buys end to end:
//
//   * shared-DAG build cost and classify throughput (packets/s through one
//     multi-terminal traversal) against the per-statement evaluate loop;
//   * the compile memo: BDD compiles are counter-asserted to be bounded by
//     *distinct* predicates, not statements;
//   * deduplicated codegen: statements whose predicates hash-cons to the
//     same BDD emit one classify rule — asserted >= 2x fewer than naive;
//   * compile memory: live BDD nodes, DAG nodes, and peak RSS.
//
// MERLIN_BENCH_JSON=<path> writes the rows as JSON (tools/verify.sh
// writes build-release/BENCH_policy_scale.json); MERLIN_BENCH_TINY=1
// restricts the sweep to the smallest instance for the smoke leg. Exits non-zero if an assertion
// fails, so CI catches sharing regressions, not just slowdowns.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "codegen/codegen.h"
#include "core/addressing.h"
#include "core/compiler.h"
#include "ir/ast.h"
#include "pred/analysis.h"
#include "pred/classifier.h"
#include "pred/packet.h"
#include "topo/generators.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

using namespace merlin;

struct Scale_row {
    int statements = 0;
    int distinct = 0;
    long long compiles = 0;
    double dag_build_ms = 0;
    std::size_t dag_nodes = 0;
    std::size_t terminal_sets = 0;
    double classify_mpps = 0;        // million packets/s, shared DAG
    double per_statement_kpps = 0;   // thousand packets/s, evaluate loop
    double compile_ms = 0;           // core::compile of the policy
    double codegen_ms = 0;
    int flow_rules = 0;
    long long classify_rules_naive = 0;
    long long classify_rules_emitted = 0;
    long long bdd_nodes = 0;
    long long peak_rss_mb = 0;
};

long long peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss / 1024;  // ru_maxrss is KiB on Linux
}

bool check(bool ok, const char* what) {
    if (!ok) std::fprintf(stderr, "FAILED: %s\n", what);
    return ok;
}

void write_json(const char* path, const std::vector<Scale_row>& rows) {
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(out, "{\n  \"bench\": \"policy_scale\",\n  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Scale_row& r = rows[i];
        std::fprintf(
            out,
            "    {\"statements\": %d, \"distinct_predicates\": %d, "
            "\"predicate_compiles\": %lld, \"dag_build_ms\": %.1f, "
            "\"dag_nodes\": %zu, \"terminal_sets\": %zu, "
            "\"classify_mpps\": %.2f, \"per_statement_kpps\": %.2f, "
            "\"compile_ms\": %.1f, \"codegen_ms\": %.1f, "
            "\"flow_rules\": %d, \"classify_rules_naive\": %lld, "
            "\"classify_rules_emitted\": %lld, \"bdd_nodes\": %lld, "
            "\"peak_rss_mb\": %lld}%s\n",
            r.statements, r.distinct, r.compiles, r.dag_build_ms,
            r.dag_nodes, r.terminal_sets, r.classify_mpps,
            r.per_statement_kpps, r.compile_ms, r.codegen_ms, r.flow_rules,
            r.classify_rules_naive, r.classify_rules_emitted, r.bdd_nodes,
            r.peak_rss_mb, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path);
}

// The distinct pool: mostly disjoint per-port tests plus a handful of broad
// classes overlapping all of them (every port statement also matches the
// ip.proto class on tcp packets) — the overlap-heavy shape.
std::vector<ir::PredPtr> distinct_pool(int distinct) {
    std::vector<ir::PredPtr> pool;
    pool.reserve(static_cast<std::size_t>(distinct));
    pool.push_back(ir::pred_test("ip.proto", 6));
    pool.push_back(ir::pred_test("ip.src", 0x0a000001));
    pool.push_back(ir::pred_and(ir::pred_test("ip.proto", 17),
                                ir::pred_test("ip.dst", 0x0a000002)));
    for (int p = 0; static_cast<int>(pool.size()) < distinct; ++p)
        pool.push_back(ir::pred_test("tcp.dst", 1024 + p));
    return pool;
}

bool run(int statements, std::vector<Scale_row>& rows) {
    const int distinct = std::max(statements / 100, 16);
    Scale_row row;
    row.statements = statements;
    row.distinct = distinct;

    const std::vector<ir::PredPtr> pool = distinct_pool(distinct);
    std::vector<ir::PredPtr> preds;
    preds.reserve(static_cast<std::size_t>(statements));
    for (int i = 0; i < statements; ++i)
        preds.push_back(pool[static_cast<std::size_t>(i) % pool.size()]);

    // ---- shared DAG build + the compile-memo bound -----------------------
    pred::Analyzer analyzer;
    const bench::Stopwatch build_watch;
    const pred::Classifier classifier(analyzer, preds);
    row.dag_build_ms = build_watch.ms();
    row.compiles = analyzer.compile_count();
    row.dag_nodes = classifier.node_count();
    row.terminal_sets = classifier.terminal_set_count();
    row.bdd_nodes = static_cast<long long>(analyzer.manager().node_count());
    bool ok = check(analyzer.compile_count() <=
                        static_cast<long long>(distinct),
                    "BDD compiles exceed distinct predicates");

    // ---- classify throughput: one traversal vs the evaluate loop ---------
    Rng rng(42);
    const int probes = 200000;
    std::vector<pred::Packet> packets;
    packets.reserve(probes);
    for (int i = 0; i < probes; ++i) {
        pred::Packet k;
        k.fields["ip.proto"] = rng.chance(0.7) ? 6 : 17;
        k.fields["tcp.dst"] =
            static_cast<std::uint64_t>(rng.uniform(1024, 1024 + distinct));
        if (rng.chance(0.1)) k.fields["ip.src"] = 0x0a000001;
        packets.push_back(std::move(k));
    }
    std::size_t matched = 0;
    const bench::Stopwatch classify_watch;
    for (const pred::Packet& k : packets)
        matched += classifier.classify(k).size();
    const double classify_ms = classify_watch.ms();
    row.classify_mpps = probes / classify_ms / 1e3;

    // Baseline on a sample: every statement's own BDD evaluated per packet.
    const int sample = 50;
    std::size_t matched_naive = 0;
    const bench::Stopwatch naive_watch;
    for (int i = 0; i < sample; ++i) {
        const std::vector<bool> bits = analyzer.bits_of(packets[
            static_cast<std::size_t>(i)]);
        for (const ir::PredPtr& p : preds)
            if (analyzer.manager().evaluate(analyzer.compile(p), bits))
                ++matched_naive;
    }
    const double naive_ms = naive_watch.ms();
    row.per_statement_kpps = sample / naive_ms;
    std::size_t matched_dag = 0;
    for (int i = 0; i < sample; ++i)
        matched_dag +=
            classifier.classify(packets[static_cast<std::size_t>(i)]).size();
    ok = check(matched_dag == matched_naive,
               "shared DAG disagrees with per-statement evaluation") && ok;

    // ---- compile + deduplicated codegen ---------------------------------
    const topo::Topology topo = topo::fat_tree(2);
    const core::Addressing addressing(topo);
    const auto hosts = topo.hosts();
    ir::Policy policy;
    for (int i = 0; i < statements; ++i) {
        ir::Statement s;
        s.id = indexed("t", i);
        // Pin the destination so delivery is defined; the predicate pool
        // cycles, so ~100 statements share each (pool, dst) predicate.
        s.predicate = ir::pred_and(
            pool[static_cast<std::size_t>(i) % pool.size()],
            ir::pred_test("eth.dst",
                          addressing.mac(hosts[
                              static_cast<std::size_t>(i) % hosts.size()])));
        s.path = ir::path_any_star();
        policy.statements.push_back(std::move(s));
    }
    const bench::Stopwatch compile_watch;
    const core::Compilation compilation =
        core::compile(policy, topo, bench::scalability_options());
    row.compile_ms = compile_watch.ms();
    if (!compilation.feasible) {
        std::fprintf(stderr, "FAILED: policy infeasible: %s\n",
                     compilation.diagnostic.c_str());
        return false;
    }
    const bench::Stopwatch codegen_watch;
    const codegen::Configuration config =
        codegen::generate(compilation, topo);
    row.codegen_ms = codegen_watch.ms();
    row.flow_rules = static_cast<int>(config.flow_rules.size());
    long long emitted = 0;
    for (const codegen::Flow_rule& r : config.flow_rules)
        if (r.match != nullptr &&
            (r.priority == codegen::kClassifyPriority ||
             r.priority == codegen::kDropPriority))
            ++emitted;
    row.classify_rules_emitted = emitted;
    row.classify_rules_naive = emitted + config.classify_rules_deduped;
    ok = check(row.classify_rules_naive >= 2 * emitted,
               "dedup saved less than 2x classify rules") &&
         ok;
    row.peak_rss_mb = peak_rss_mb();

    std::printf(
        "%9d stmts %6d distinct | compiles %5lld | DAG %7zu nodes "
        "%6zu sets %8.1f ms | classify %7.2f Mpps (naive %7.2f Kpps) | "
        "rules %7d (classify %lld of naive %lld) | compile %8.1f ms "
        "codegen %7.1f ms | rss %lld MB\n",
        row.statements, row.distinct, row.compiles, row.dag_nodes,
        row.terminal_sets, row.dag_build_ms, row.classify_mpps,
        row.per_statement_kpps, row.flow_rules, row.classify_rules_emitted,
        row.classify_rules_naive, row.compile_ms, row.codegen_ms,
        row.peak_rss_mb);
    (void)matched;
    rows.push_back(row);
    return ok;
}

}  // namespace

int main() {
    const bool tiny = std::getenv("MERLIN_BENCH_TINY") != nullptr;
    const std::vector<int> sizes =
        tiny ? std::vector<int>{5000} : std::vector<int>{20000, 100000};
    std::printf("policy scale: shared predicate DAG + deduplicated codegen\n");
    std::vector<Scale_row> rows;
    bool ok = true;
    for (const int n : sizes) ok = run(n, rows) && ok;
    if (const char* path = std::getenv("MERLIN_BENCH_JSON"))
        write_json(path, rows);
    if (!ok) return 1;
    std::printf("policy scale: all sharing assertions held\n");
    return 0;
}
