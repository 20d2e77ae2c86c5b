// forward: the dataplane read path. About 10^4 disjoint statements (host
// pair x TCP port) on fat-tree:4 are compiled once into a Controller with
// the Table-7 options and both gates off; its snapshot's tables become one
// netsim::Rule_network and its statement predicates one pred::Classifier.
// Bursts of packets drawn in a seeded Zipf order then reload the snapshot
// (as a merlind reader does), classify the burst, and route the burst.
#include <memory>
#include <unordered_map>

#include "bench_util.h"
#include "daemon/daemon.h"
#include "gen.h"
#include "netsim/tables.h"
#include "parser/parser.h"
#include "pred/classifier.h"
#include "topo/generators.h"
#include "trace.h"

namespace perfbench {

namespace mer = merlin;

namespace {

constexpr int kForwardK = 4;
constexpr std::size_t kBurst = 256;
constexpr std::size_t kOrderLength = std::size_t{1} << 16;
constexpr double kZipfExponent = 1.0;

int ports_per_pair(bool tiny) { return tiny ? 2 : 42; }

// The Table-7 options (the paper's measurement), with the thread count pinned.
mer::core::Compile_options forward_options() {
    mer::core::Compile_options o = mer::bench::scalability_options();
    o.jobs = kThreads;
    return o;
}

mer::daemon::Options reader_daemon_options() {
    mer::daemon::Options o;
    o.verify_updates = false;
    o.lint_policies = false;
    return o;
}

// One flow of the pool: its header and the generator's reference answers.
struct Flow {
    mer::pred::Packet header;
    std::string id;          // the statement it was drawn from
    std::string ingress;     // the source host's edge switch
    std::uint64_t dst_mac = 0;
    std::string dst_host;
};

struct Dataplane {
    std::unique_ptr<mer::daemon::Controller> controller;
    std::shared_ptr<const mer::daemon::Snapshot> snapshot;
    mer::pred::Analyzer analyzer;
    std::unique_ptr<mer::pred::Classifier> classifier;
    std::unique_ptr<mer::netsim::Rule_network> network;
    std::vector<std::string> plan_ids;  // classifier index -> statement id
    std::size_t table_rules = 0;
    std::vector<Flow> pool;
};

// Builds the controller, the classifier DAG, the rule tables and the
// packet pool from the generated policy text.
void build(Dataplane& dp, const std::string& text,
           const std::vector<Pair_statement>& statements,
           const mer::topo::Topology& topo, Tracer* tracer) {
    {
        Tracer::Scope span(tracer, "daemon.controller_build", -1);
        dp.controller = std::make_unique<mer::daemon::Controller>(
            mer::parser::parse_policy(text), topo, forward_options(),
            reader_daemon_options());
    }
    dp.snapshot = dp.controller->snapshot();
    const mer::core::Compilation& comp = dp.snapshot->compilation;
    {
        Tracer::Scope span(tracer, "pred.dag_build", -1);
        std::vector<mer::ir::PredPtr> preds;
        for (const mer::core::Statement_plan& plan : comp.plans) {
            preds.push_back(plan.statement.predicate);
            dp.plan_ids.push_back(plan.statement.id);
        }
        dp.classifier = std::make_unique<mer::pred::Classifier>(dp.analyzer, preds);
    }
    {
        // Rule predicates become traffic-class ids by their text: every
        // statement is its own predicate group, so each classify rule
        // carries its statement's predicate.
        Tracer::Scope span(tracer, "netsim.table_build", -1);
        std::unordered_map<std::string, int> class_of;
        for (std::size_t i = 0; i < comp.plans.size(); ++i)
            class_of.emplace(mer::ir::to_string(comp.plans[i].statement.predicate),
                             static_cast<int>(i));
        const mer::topo::Topology& served = dp.snapshot->topology;
        dp.network = std::make_unique<mer::netsim::Rule_network>(served);
        for (const mer::codegen::Flow_rule& r : dp.snapshot->config.flow_rules) {
            mer::netsim::Table_rule rule;
            rule.priority = r.priority;
            if (r.match != nullptr) {
                const auto it = class_of.find(mer::ir::to_string(r.match));
                rule.match_class = it == class_of.end() ? mer::netsim::kMatchNothing
                                                        : it->second;
            }
            rule.match_tag = r.match_tag.value_or(-1);
            rule.match_dst = r.match_dst_mac.value_or(0);
            rule.drop = r.drop;
            rule.set_tag = r.set_tag.value_or(-1);
            rule.strip_tag = r.strip_tag;
            rule.out_port = r.out_port;
            dp.network->add_rule(r.device, std::move(rule));
        }
        dp.table_rules = dp.snapshot->config.flow_rules.size();
        for (const mer::topo::NodeId h : served.hosts())
            dp.network->set_host_mac(served.node(h).name,
                                     dp.snapshot->compilation.addressing.mac(h));
    }
    dp.pool.clear();
    for (const Pair_statement& s : statements) {
        Flow flow;
        flow.header.fields = {{"eth.src", host_mac(s.src)},
                              {"eth.dst", host_mac(s.dst)},
                              {"tcp.dst", static_cast<std::uint64_t>(s.port)}};
        flow.id = s.id;
        const auto src = topo.find(host_name(s.src));
        flow.ingress = src ? topo.node(topo.neighbors(*src).front().node).name
                           : std::string();
        flow.dst_mac = host_mac(s.dst);
        flow.dst_host = host_name(s.dst);
        dp.pool.push_back(std::move(flow));
    }
}

// One burst, identical in the untraced and traced runs: reload the
// snapshot, classify the burst, route the burst.
struct Burst_out {
    std::uint64_t generation = 0;
    std::vector<const std::vector<mer::pred::Classifier::Index>*> classes;
    std::vector<mer::netsim::Table_trace> traces;
};

void run_burst(const Dataplane& dp, const std::vector<std::uint32_t>& order,
               std::size_t offset, Burst_out& out, Tracer* tracer,
               long long request) {
    {
        Tracer::Scope span(tracer, "daemon.snapshot_load", request);
        out.generation = dp.controller->snapshot()->generation;
    }
    {
        Tracer::Scope span(tracer, "pred.classify", request);
        for (std::size_t j = 0; j < kBurst; ++j)
            out.classes[j] = &dp.classifier->classify(
                dp.pool[order[(offset + j) % order.size()]].header);
    }
    {
        Tracer::Scope span(tracer, "netsim.route", request);
        for (std::size_t j = 0; j < kBurst; ++j) {
            const Flow& flow = dp.pool[order[(offset + j) % order.size()]];
            mer::netsim::Packet packet;
            packet.traffic_class = out.classes[j]->size() == 1
                                       ? static_cast<int>(out.classes[j]->front())
                                       : mer::netsim::kMatchNothing;
            packet.dst = flow.dst_mac;
            out.traces[j] = dp.network->route(flow.ingress, packet);
        }
    }
}

// Each packet must classify to exactly the statement the generator drew it
// from and be delivered to the host owning its eth.dst. Returns the hops
// the burst's packets took.
double check_burst(const Dataplane& dp, const std::vector<std::uint32_t>& order,
                   std::size_t offset, const Burst_out& out, Result& result) {
    double hops = 0;
    if (out.generation != dp.snapshot->generation)
        result.fail("snapshot generation moved under a read-only workload");
    for (std::size_t j = 0; j < kBurst; ++j) {
        const Flow& flow = dp.pool[order[(offset + j) % order.size()]];
        const auto& cls = *out.classes[j];
        const auto& trace = out.traces[j];
        ++result.attempted;
        if (cls.size() != 1 || dp.plan_ids[cls.front()] != flow.id)
            result.fail("packet of " + flow.id + " misclassified");
        else if (!trace.delivered || trace.path.back() != flow.dst_host)
            result.fail("packet of " + flow.id + " not delivered to " +
                        flow.dst_host + ": " + trace.verdict);
        hops += static_cast<double>(trace.path.size()) - 1;
    }
    return hops;
}

}  // namespace

Result run_forward(const Run_options& options) {
    Result result;
    const mer::topo::Topology topo = mer::topo::fat_tree(kForwardK);
    const std::vector<Pair_statement> statements =
        forward_statements(options.seed, kForwardK, ports_per_pair(options.tiny));
    const std::string text = policy_text(statements);
    const std::vector<std::uint32_t> order =
        zipf_order(derive_seed(options.seed, 1), statements.size(), kOrderLength,
                   kZipfExponent);

    // Set-up, several times; the last one serves. Traced runs record each
    // set-up phase as a span.
    Tracer tracer;
    Tracer* const trace = options.trace ? &tracer : nullptr;
    std::vector<double> setups;
    std::unique_ptr<Dataplane> dp;
    for (int r = 0; r < setup_repeats(options, 3); ++r) {
        dp.reset();
        const auto t0 = Clock::now();
        dp = std::make_unique<Dataplane>();
        build(*dp, text, statements, topo, trace);
        setups.push_back(ms_between(t0, Clock::now()) / 1e3);
    }

    // Traced runs replay every burst under the tracer too, alternately
    // before and after the untraced one, so that host drift cancels per
    // burst and neither side always finds the burst's flows in cache.
    Burst_out out;
    out.classes.resize(kBurst);
    out.traces.resize(kBurst);
    Burst_out traced_out = out;
    double traced_ms = 0;
    double hops = 0;
    Result traced_checks;
    const auto traced_burst = [&](std::size_t b) {
        const auto req = static_cast<long long>(b);
        const int root = tracer.begin("forward.burst", req);
        run_burst(*dp, order, b * kBurst, traced_out, &tracer, req);
        tracer.end(root);
        traced_ms += tracer.duration_ns(root) / 1e6;
    };

    std::vector<double> ms;
    const std::size_t min_bursts = min_ops(options);
    const auto start = Clock::now();
    for (std::size_t b = 0; ms_between(start, Clock::now()) < options.seconds * 1e3 ||
                            ms.size() < min_bursts;
         ++b) {
        if (ms_between(start, Clock::now()) > kHardStopSeconds * 1e3) break;
        const bool traced_first = options.trace && b % 2 == 1;
        if (traced_first) traced_burst(b);
        const auto t0 = Clock::now();
        run_burst(*dp, order, b * kBurst, out, nullptr, -1);
        ms.push_back(ms_between(t0, Clock::now()));
        if (options.trace && !traced_first) traced_burst(b);
        check_burst(*dp, order, b * kBurst, out, result);
        if (options.trace)
            hops += check_burst(*dp, order, b * kBurst, traced_out, traced_checks);
    }
    double busy_ms = 0;
    for (const double t : ms) busy_ms += t;
    const double bursts = static_cast<double>(ms.size());
    const double packets = bursts * static_cast<double>(kBurst);
    const double pps = busy_ms > 0 ? packets / (busy_ms / 1e3) : 0;
    const Latency latency = summarize(ms);
    fill_end_to_end(result, median(setups), latency, pps);
    result.summary = {
        {"statements", {static_cast<double>(statements.size()), "count"}},
        {"bursts", {bursts, "count"}},
        {"burst_p50_ms", {latency.p50_ms, "ms"}},
        {"burst_p90_ms", {latency.p90_ms, "ms"}},
        {"forward_kpps", {pps / 1e3, "kpps"}},
    };
    if (!options.trace) return result;

    if (traced_checks.failed > 0)
        result.fail("traced replay: " + traced_checks.errors.front());

    const auto self = tracer.self_ns_by_name();
    const auto self_ns = [&](const char* name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    const double repeats = static_cast<double>(setups.size());
    auto& m = result.per_layer;
    m["pred.classify_ns"] = {self_ns("pred.classify") / packets, "ns"};
    m["netsim.route_ns"] = {self_ns("netsim.route") / packets, "ns"};
    m["netsim.hops_per_pkt"] = {hops / packets, "count"};
    m["daemon.snapshot_load_ns"] = {self_ns("daemon.snapshot_load") / bursts, "ns"};
    m["daemon.controller_build_ms"] = {self_ns("daemon.controller_build") / 1e6 / repeats, "ms"};
    m["pred.dag_build_ms"] = {self_ns("pred.dag_build") / 1e6 / repeats, "ms"};
    m["netsim.table_build_ms"] = {self_ns("netsim.table_build") / 1e6 / repeats, "ms"};
    m["pred.dag_nodes"] = {static_cast<double>(dp->classifier->node_count()), "count"};
    m["netsim.table_rules"] = {static_cast<double>(dp->table_rules), "count"};
    fill_trace_accounting(result, busy_ms / bursts, traced_ms / bursts, tracer,
                          "forward.burst");
    if (!options.trace_out.empty()) tracer.write_jsonl(options.trace_out);
    return result;
}

}  // namespace perfbench
