// provision: the paper's Table-7 set-up. Every compile takes freshly
// generated fat-tree:6 all-pairs policy text through parse -> compile ->
// generate with the pre-processor and catch-all off and the solver in
// column-generation mode.
#include "bench_util.h"
#include "codegen/codegen.h"
#include "core/compiler.h"
#include "gen.h"
#include "parser/parser.h"
#include "topo/generators.h"
#include "trace.h"

namespace perfbench {

namespace mer = merlin;

namespace {

constexpr double kGuaranteedShare = 0.05;

int provision_k(bool tiny) { return tiny ? 4 : 6; }

// The paper's measurement options in colgen mode; the MIP is forced, as the
// auto selector would fall back to greedy above 24 guaranteed statements.
mer::core::Compile_options provision_options() {
    mer::core::Compile_options o = mer::bench::scalability_options();
    o.solver = mer::core::Solver::mip;
    o.solver_mode = mer::core::Solver_mode::colgen;
    o.jobs = kThreads;
    return o;
}

// The i-th compile's input, from the run seed alone.
std::vector<Pair_statement> compile_input(std::uint64_t seed, int k, long long i) {
    return provision_statements(derive_seed(seed, static_cast<std::uint64_t>(i)),
                                k, kGuaranteedShare);
}

struct Compiled {
    mer::core::Compilation compilation;
    mer::codegen::Configuration config;
};

// Checks one compile against the generator's statements: feasible, valid
// tables, one plan per statement with its guarantee, each guaranteed one
// provisioned between its own hosts at its own rate, and the per-link
// reservations recomputed from those paths within capacity.
std::string check_compile(const Compiled& out,
                          const std::vector<Pair_statement>& want,
                          const mer::topo::Topology& topo) {
    const mer::core::Compilation& comp = out.compilation;
    if (!comp.feasible) return "infeasible: " + comp.diagnostic;
    try {
        mer::codegen::validate(out.config);
    } catch (const std::exception& e) {
        return std::string("invalid tables: ") + e.what();
    }
    if (comp.plans.size() != want.size())
        return "plan count " + std::to_string(comp.plans.size()) + " != " +
               std::to_string(want.size());
    std::vector<std::uint64_t> reserved(static_cast<std::size_t>(topo.link_count()));
    for (std::size_t i = 0; i < want.size(); ++i) {
        const mer::core::Statement_plan& plan = comp.plans[i];
        const Pair_statement& s = want[i];
        if (plan.statement.id != s.id) return "plan order differs at " + s.id;
        if (plan.guarantee != mer::mbps(s.guarantee_mbps))
            return s.id + " has the wrong guarantee";
        if (s.guarantee_mbps == 0) continue;
        if (!plan.path) return s.id + " has no provisioned path";
        const auto& nodes = plan.path->nodes;
        if (nodes.empty() || topo.node(nodes.front()).name != host_name(s.src) ||
            topo.node(nodes.back()).name != host_name(s.dst))
            return s.id + " is provisioned between the wrong hosts";
        if (plan.path->rate != mer::mbps(s.guarantee_mbps))
            return s.id + " is provisioned at the wrong rate";
        for (const mer::topo::LinkId link : plan.path->links)
            reserved[static_cast<std::size_t>(link)] += mer::mbps(s.guarantee_mbps).bps();
    }
    for (int l = 0; l < topo.link_count(); ++l)
        if (reserved[static_cast<std::size_t>(l)] > topo.link(l).capacity.bps())
            return "link " + std::to_string(l) + " is over-reserved";
    return {};
}

// Per-layer work the traced run reads off each returned compilation.
struct Compilation_sums {
    double preprocess_ms = 0, lp_construction_ms = 0, lp_solve_ms = 0,
           rateless_ms = 0;
    double simplex_iterations = 0, mip_nodes = 0;
    double colgen_rounds = 0, columns = 0, full_fallbacks = 0;
    double flow_rules = 0, classify_rules_deduped = 0;

    void add(const mer::core::Compilation& comp,
             const mer::codegen::Configuration& config) {
        preprocess_ms += comp.timing.preprocess_ms;
        lp_construction_ms += comp.timing.lp_construction_ms;
        lp_solve_ms += comp.timing.lp_solve_ms;
        rateless_ms += comp.timing.rateless_ms;
        const mer::core::Provision_result& p = comp.provision;
        simplex_iterations += static_cast<double>(p.simplex_iterations);
        mip_nodes += p.mip_nodes;
        colgen_rounds += p.colgen_rounds;
        columns += p.columns_generated;
        full_fallbacks += p.full_fallbacks;
        flow_rules += static_cast<double>(config.flow_rules.size());
        classify_rules_deduped +=
            static_cast<double>(config.classify_rules_deduped);
    }
};

// Policy text to device tables; identical in the untraced and traced runs
// (a null tracer records nothing).
Compiled compile_text(const std::string& text, const mer::topo::Topology& topo,
                      Tracer* tracer = nullptr, long long request = -1) {
    mer::ir::Policy policy;
    {
        Tracer::Scope span(tracer, "parser.parse", request);
        policy = mer::parser::parse_policy(text);
    }
    Compiled out;
    {
        Tracer::Scope span(tracer, "core.compile", request);
        out.compilation = mer::core::compile(policy, topo, provision_options());
    }
    {
        Tracer::Scope span(tracer, "codegen.generate", request);
        out.config = mer::codegen::generate(out.compilation, topo);
    }
    return out;
}

}  // namespace

Result run_provision(const Run_options& options) {
    Result result;
    const int k = provision_k(options.tiny);

    // Set-up: build the topology and make one warm-up compile (the first
    // compile in a process pays allocator and cache warm-up the others do
    // not), several times.
    std::vector<double> setups;
    for (int r = 0; r < setup_repeats(options, 5); ++r) {
        const std::string text =
            policy_text(compile_input(options.seed, k, -1 - r));
        const auto t0 = Clock::now();
        const mer::topo::Topology warm_topo = mer::topo::fat_tree(k);
        (void)compile_text(text, warm_topo);
        setups.push_back(ms_between(t0, Clock::now()) / 1e3);
    }
    const mer::topo::Topology topo = mer::topo::fat_tree(k);

    // Traced runs make every compile twice, untraced and under the tracer,
    // alternately one first, so that host drift cancels per compile and
    // neither side always runs warm.
    Tracer tracer;
    double traced_ms = 0;
    Compilation_sums sums;
    const auto traced_compile = [&](const std::string& text, long long i) {
        const int root = tracer.begin("provision.compile", i);
        const Compiled out = compile_text(text, topo, &tracer, i);
        tracer.end(root);
        traced_ms += tracer.duration_ns(root) / 1e6;
        sums.add(out.compilation, out.config);
    };

    std::vector<double> ms;
    const std::size_t min_compiles = min_ops(options);
    std::size_t statements = 0;
    const auto start = Clock::now();
    for (long long i = 0; ms_between(start, Clock::now()) < options.seconds * 1e3 ||
                          ms.size() < min_compiles;
         ++i) {
        if (ms_between(start, Clock::now()) > kHardStopSeconds * 1e3) break;
        const std::vector<Pair_statement> want = compile_input(options.seed, k, i);
        const std::string text = policy_text(want);
        const bool traced_first = options.trace && i % 2 == 1;
        if (traced_first) traced_compile(text, i);
        {
            const auto t0 = Clock::now();
            const Compiled out = compile_text(text, topo);
            ms.push_back(ms_between(t0, Clock::now()));
            ++result.attempted;
            statements = want.size();
            if (const std::string error = check_compile(out, want, topo); !error.empty())
                result.fail("compile " + std::to_string(i) + ": " + error);
        }
        if (options.trace && !traced_first) traced_compile(text, i);
    }
    double busy_ms = 0;
    for (const double t : ms) busy_ms += t;
    const Latency latency = summarize(ms);
    const double compiles = static_cast<double>(ms.size());
    const double stmts_per_s =
        busy_ms > 0 ? compiles * static_cast<double>(statements) / (busy_ms / 1e3) : 0;
    fill_end_to_end(result, median(setups), latency, stmts_per_s);
    result.summary = {
        {"compiles", {compiles, "count"}},
        {"statements", {static_cast<double>(statements), "count"}},
        {"compile_p50_ms", {latency.p50_ms, "ms"}},
        {"compile_p90_ms", {latency.p90_ms, "ms"}},
        {"compile_stmts_per_s", {stmts_per_s, "1/s"}},
    };
    if (!options.trace) return result;

    const auto self = tracer.self_ns_by_name();
    const auto per_compile = [&](double total) { return compiles > 0 ? total / compiles : 0.0; };
    const auto self_ms = [&](const char* name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : per_compile(it->second / 1e6);
    };
    auto& m = result.per_layer;
    m["parser.parse_ms"] = {self_ms("parser.parse"), "ms"};
    m["core.compile_ms"] = {self_ms("core.compile"), "ms"};
    m["core.preprocess_ms"] = {per_compile(sums.preprocess_ms), "ms"};
    m["core.lp_construction_ms"] = {per_compile(sums.lp_construction_ms), "ms"};
    m["core.lp_solve_ms"] = {per_compile(sums.lp_solve_ms), "ms"};
    m["core.rateless_ms"] = {per_compile(sums.rateless_ms), "ms"};
    m["lp.simplex_iterations"] = {per_compile(sums.simplex_iterations), "count"};
    m["mip.nodes"] = {per_compile(sums.mip_nodes), "count"};
    m["core.colgen.rounds"] = {per_compile(sums.colgen_rounds), "count"};
    m["core.colgen.columns"] = {per_compile(sums.columns), "count"};
    m["core.colgen.full_fallbacks"] = {per_compile(sums.full_fallbacks), "count"};
    m["codegen.generate_ms"] = {self_ms("codegen.generate"), "ms"};
    m["codegen.flow_rules"] = {per_compile(sums.flow_rules), "count"};
    m["codegen.classify_rules_deduped"] = {per_compile(sums.classify_rules_deduped), "count"};
    fill_trace_accounting(result, per_compile(busy_ms), per_compile(traced_ms), tracer,
                          "provision.compile");
    if (!options.trace_out.empty()) tracer.write_jsonl(options.trace_out);
    return result;
}

}  // namespace perfbench
