// churn: the merlind write path as shipped. A daemon::Controller with
// default compile options and both gates on absorbs a seeded stream of
// control lines one at a time through apply_line (closed loop, one client).
//
// The traced run also replays each delta through the public calls
// Controller::transact makes, in the same order, with a span around each.
#include <cmath>
#include <memory>
#include <optional>
#include <set>

#include "analysis/dataplane.h"
#include "analysis/lint.h"
#include "codegen/diff.h"
#include "daemon/daemon.h"
#include "gen.h"
#include "parser/parser.h"
#include "topo/generators.h"
#include "trace.h"

namespace perfbench {

namespace mer = merlin;

namespace {

Churn_params churn_params(bool tiny) {
    Churn_params p;
    if (tiny) {
        p.statements = 6;
        p.hosts = 4;
    }
    return p;
}

// merlind's defaults: catch-all statement, disjointness check, auto solver;
// only the thread count is pinned.
mer::core::Compile_options churn_compile_options() {
    mer::core::Compile_options o;
    o.jobs = kThreads;
    return o;
}

const mer::core::Statement_plan* find_plan(const mer::daemon::Snapshot& snap,
                                           const std::string& id) {
    for (const mer::core::Statement_plan& plan : snap.compilation.plans)
        if (plan.statement.id == id) return &plan;
    return nullptr;
}

std::optional<bool> link_state(const mer::topo::Topology& topo,
                               const std::string& a, const std::string& b) {
    const auto na = topo.find(a);
    const auto nb = topo.find(b);
    if (!na || !nb) return std::nullopt;
    const auto link = topo.link_between(*na, *nb);
    if (!link) return std::nullopt;
    return topo.link_up(*link);
}

// The delta's effect on the published snapshot, against the generator's
// model after that delta. Empty when it matches.
std::string check_effect(const mer::daemon::Snapshot& snap,
                         const mer::daemon::Command& cmd,
                         const Churn_stream& stream) {
    using Kind = mer::daemon::Command::Kind;
    if (!snap.compilation.feasible) return "published an infeasible state";
    switch (cmd.kind) {
        case Kind::bandwidth: {
            const auto* plan = find_plan(snap, cmd.id);
            const auto want = stream.statements().at(cmd.id).guarantee_mbps;
            if (plan == nullptr || plan->guarantee != mer::mbps(want) ||
                !plan->path)
                return "bandwidth " + cmd.id + " not provisioned at " +
                       std::to_string(want) + " Mbps";
            return {};
        }
        case Kind::remove:
            return find_plan(snap, cmd.id) ? "remove " + cmd.id + " kept it"
                                           : std::string();
        case Kind::add:
            return find_plan(snap, cmd.stmt.id) ? std::string()
                                                : "add " + cmd.stmt.id +
                                                      " is missing";
        case Kind::fail:
        case Kind::restore: {
            const bool want_up = cmd.kind == Kind::restore;
            if (link_state(snap.topology, cmd.node_a, cmd.node_b) != want_up)
                return "link " + cmd.node_a + "-" + cmd.node_b +
                       " not " + (want_up ? "up" : "down");
            return {};
        }
        default:
            return "unexpected command kind";
    }
}

// The served policy must equal the generator's model: same statement ids,
// predicates and guarantees (the compiler's catch-all aside).
std::string check_final(const mer::daemon::Snapshot& snap,
                        const Churn_stream& stream) {
    std::set<std::string> seen;
    for (const mer::core::Statement_plan& plan : snap.compilation.plans) {
        if (plan.statement.id == "__default") continue;
        const auto it = stream.statements().find(plan.statement.id);
        if (it == stream.statements().end())
            return "served unknown statement " + plan.statement.id;
        const Pair_statement& want = it->second;
        const mer::ir::Policy parsed = mer::parser::parse_policy(
            "[ x : " + predicate_text(want) + " -> .* ]");
        if (!mer::ir::equal(parsed.statements[0].predicate,
                            plan.statement.predicate))
            return "statement " + want.id + " has a different predicate";
        if (plan.guarantee != mer::mbps(want.guarantee_mbps))
            return "statement " + want.id + " has a different guarantee";
        seen.insert(plan.statement.id);
    }
    if (seen.size() != stream.statements().size())
        return "served policy lacks statements of the model";
    // At most one link is down, the one the model failed last.
    int down = 0;
    for (int l = 0; l < snap.topology.link_count(); ++l)
        down += snap.topology.link_up(l) ? 0 : 1;
    const auto& failed = stream.failed_link();
    if (down != (failed ? 1 : 0) ||
        (failed && link_state(snap.topology, failed->first, failed->second) !=
                       false))
        return "served link state differs from the model";
    return {};
}

// The traced replay of the daemon's write path: for one delta, the public
// calls Controller::transact makes with both gates on (through
// analysis::Update_checker::step), in the same order, each under a span.
// It mirrors Controller::transact in src/daemon/daemon.cpp and
// Update_checker::step in src/analysis/dataplane.cpp and must be changed
// with them: run_churn fails a traced run in which the replay of a delta
// kind drifts more than kReplayTolerance from the daemon's latency.
class Replay {
public:
    Replay(const Churn_stream& fresh, const mer::topo::Topology& topo)
        : engine_(mer::parser::parse_policy(fresh.initial_policy()), topo,
                  churn_compile_options()) {
        (void)incremental_.update(engine_.current(), engine_.topology());
        previous_ = engine_.current();
        previous_config_ = incremental_.config();
    }

    void step(const Delta& delta, long long request, Tracer& tracer,
              Result& result);

    // Per replayed delta: the sum of its layer spans and the whole
    // transaction span.
    std::vector<double> layer_ms;
    std::vector<double> traced_ms;
    mer::core::Engine_stats work;
    double diff_rules = 0;
    double table_rules = 0;
    [[nodiscard]] std::uint64_t checksum() const {
        return served_ ? served_->checksum : 0;
    }

private:
    // The rollback state the daemon copies before every transaction
    // (checker state and engine checkpoint): same work, never used.
    struct Backup {
        mer::codegen::Incremental incremental;
        mer::core::Compilation previous;
        mer::codegen::Configuration previous_config;
        mer::core::Engine::Checkpoint checkpoint;
    };

    mer::core::Engine engine_;
    mer::codegen::Incremental incremental_;
    mer::core::Compilation previous_;
    mer::codegen::Configuration previous_config_;
    std::shared_ptr<const mer::daemon::Snapshot> served_;
    std::uint64_t generation_ = 1;
};

void Replay::step(const Delta& delta, long long request, Tracer& tracer,
                  Result& result) {
    const std::string kind = to_string(delta.kind);
    const int root = tracer.begin("daemon.transaction", request);
    const mer::daemon::Command cmd = mer::daemon::parse_command(delta.line);
    std::optional<Backup> backup;
    {
        Tracer::Scope span(&tracer, "daemon.rollback", request);
        backup.emplace(Backup{incremental_, previous_, previous_config_,
                              engine_.checkpoint()});
    }

    mer::core::Update_result update;
    {
        Tracer::Scope span(&tracer, "core.engine." + kind, request);
        using Kind = mer::daemon::Command::Kind;
        switch (cmd.kind) {
            case Kind::add:
                update = engine_.add_statement(cmd.stmt, cmd.guarantee, cmd.cap);
                break;
            case Kind::remove:
                update = engine_.remove_statement(cmd.id);
                break;
            case Kind::bandwidth:
                update = engine_.set_bandwidth(cmd.id, cmd.guarantee, cmd.cap);
                break;
            case Kind::fail:
                update = engine_.fail_link(cmd.node_a, cmd.node_b);
                break;
            case Kind::restore:
                update = engine_.restore_link(cmd.node_a, cmd.node_b);
                break;
            default:
                break;
        }
    }
    const auto& w = update.work;
    work.lp_encodings += w.lp_encodings;
    work.lp_patches += w.lp_patches;
    work.trees_built += w.trees_built;
    work.tree_cache_hits += w.tree_cache_hits;
    work.automata_built += w.automata_built;
    work.automata_cache_hits += w.automata_cache_hits;
    work.solves += w.solves;
    work.warm_started_solves += w.warm_started_solves;

    bool clean = update.feasible;
    {
        Tracer::Scope span(&tracer, "analysis.lint", request);
        clean = clean && !mer::analysis::has_errors(mer::analysis::lint_policy(
                             engine_.policy(), engine_.topology()));
    }
    // Update_checker::step: the incremental tables, then the proof (of the
    // new tables alone after a link delta), then the new state kept.
    mer::codegen::Diff diff;
    {
        Tracer::Scope span(&tracer, "codegen.incremental." + kind, request);
        diff = incremental_.update(engine_.current(), engine_.topology());
    }
    const mer::codegen::Configuration& config = incremental_.config();
    {
        Tracer::Scope span(&tracer, "analysis.verify." + kind, request);
        const mer::analysis::Report report =
            delta.kind == Delta_kind::link
                ? mer::analysis::check_dataplane(engine_.current(), config,
                                                 engine_.topology())
                : mer::analysis::check_update(previous_, engine_.current(),
                                              previous_config_, diff, config,
                                              engine_.topology());
        clean = clean && !mer::analysis::has_errors(report);
        previous_ = engine_.current();
        previous_config_ = config;
    }
    diff_rules += diff.rules_touched();
    table_rules += static_cast<double>(config.flow_rules.size());

    auto next = std::make_shared<mer::daemon::Snapshot>();
    {
        Tracer::Scope span(&tracer, "daemon.publish", request);
        next->generation = ++generation_;
        next->compilation = engine_.current();
        next->topology = engine_.topology();
        next->config = config;
    }
    {
        Tracer::Scope span(&tracer, "daemon.fingerprint", request);
        next->checksum = mer::daemon::snapshot_fingerprint(*next);
    }
    {
        // The swap releases the previous snapshot, and the transaction its
        // rollback state.
        Tracer::Scope span(&tracer, "daemon.publish", request);
        served_ = std::move(next);
    }
    {
        Tracer::Scope span(&tracer, "daemon.rollback", request);
        backup.reset();
    }
    tracer.end(root);
    if (!clean) result.fail("traced replay refused " + delta.line);

    double children = 0;
    for (std::size_t s = static_cast<std::size_t>(root) + 1;
         s < tracer.spans().size(); ++s)
        children += tracer.duration_ns(static_cast<int>(s));
    layer_ms.push_back(children / 1e6);
    traced_ms.push_back(tracer.duration_ns(root) / 1e6);
}

// In a traced run, the replay of a delta may take at most this share more or
// less time than the daemon took for it (the median over the deltas of a
// kind, judged once a kind has kReplayMinDeltas of them).
constexpr double kReplayTolerance = 0.2;
constexpr std::size_t kReplayMinDeltas = 10;

struct Run {
    std::vector<Delta> deltas;      // every delta attempted, in order
    std::vector<double> ms;         // apply_line latency per delta
    std::vector<bool> ok;
    long long attempts = 0;
    long long refused = 0;
    double setup_s = 0;
};

// The closed loop through apply_line. With a replay (traced runs), each
// delta is also replayed under the tracer right before or after the daemon
// takes it, alternately, so that host drift cancels per delta and neither
// side always runs second.
Run run_deltas(const Run_options& options, const Churn_params& params,
               const mer::topo::Topology& topo, Replay* replay,
               Tracer* tracer, Result& result) {
    Run run;
    // Set-up: parse the initial policy and start the controller (initial
    // compile, lint and dataplane proof). One set-up takes ~25 ms, so
    // back-to-back repeats all sample the same instant of a shared host;
    // the repeats after the first (whose controller serves the run) are
    // spread over the run instead, between deltas and outside their timing.
    std::vector<double> setups;
    const auto set_up = [&]() {
        const Churn_stream fresh(options.seed, params, topo);
        const auto t0 = Clock::now();
        auto built = std::make_unique<mer::daemon::Controller>(
            mer::parser::parse_policy(fresh.initial_policy()), topo,
            churn_compile_options());
        setups.push_back(ms_between(t0, Clock::now()) / 1e3);
        return built;
    };
    const std::unique_ptr<mer::daemon::Controller> controller = set_up();
    const int repeats = setup_repeats(options, 5);
    const std::size_t setup_every = min_ops(options) / static_cast<std::size_t>(repeats);

    Churn_stream stream(options.seed, params, topo);
    std::uint64_t generation = controller->generation();
    const std::size_t min_deltas = min_ops(options);
    const auto start = Clock::now();
    while (ms_between(start, Clock::now()) < options.seconds * 1e3 ||
           run.deltas.size() < min_deltas) {
        if (ms_between(start, Clock::now()) > kHardStopSeconds * 1e3) break;
        Delta delta = stream.next();
        const auto request = static_cast<long long>(run.deltas.size());
        const bool replay_first = replay != nullptr && request % 2 == 1;
        if (replay_first) replay->step(delta, request, *tracer, result);
        const auto t0 = Clock::now();
        const mer::daemon::Response resp = controller->apply_line(delta.line);
        const double ms = ms_between(t0, Clock::now());
        if (replay != nullptr && !replay_first)
            replay->step(delta, request, *tracer, result);
        ++result.attempted;
        run.attempts += resp.attempts;
        std::string error;
        if (!resp.ok) {
            ++run.refused;
            error = "refused: " + resp.to_line();
        } else if (resp.generation != generation + 1) {
            error = "generation advanced to " +
                    std::to_string(resp.generation) + " from " +
                    std::to_string(generation);
        } else {
            const auto snap = controller->snapshot();
            if (snap->generation != resp.generation)
                error = "served generation differs from the response";
            else if (mer::daemon::snapshot_fingerprint(*snap) != snap->checksum)
                error = "snapshot checksum does not recompute";
            else
                error = check_effect(*snap,
                                     mer::daemon::parse_command(delta.line),
                                     stream);
        }
        if (resp.ok) generation = resp.generation;
        if (!error.empty()) result.fail(delta.line + ": " + error);
        run.ok.push_back(error.empty());
        run.ms.push_back(ms);
        run.deltas.push_back(std::move(delta));
        if (static_cast<int>(setups.size()) < repeats &&
            run.deltas.size() % setup_every == 0)
            (void)set_up();
    }
    run.setup_s = median(setups);
    if (const std::string error = check_final(*controller->snapshot(), stream);
        !error.empty())
        result.fail("final policy: " + error);
    // Same stream, same start: the replay must serve what the daemon served.
    if (replay != nullptr && replay->checksum() != controller->snapshot()->checksum)
        result.fail("traced replay diverged from the daemon's final snapshot");
    return run;
}

}  // namespace

Result run_churn(const Run_options& options) {
    Result result;
    const Churn_params params = churn_params(options.tiny);
    const mer::topo::Topology topo = mer::topo::fat_tree(kChurnK);
    Tracer tracer;
    std::optional<Replay> replay;
    if (options.trace) replay.emplace(Churn_stream(options.seed, params, topo), topo);
    const Run run = run_deltas(options, params, topo, replay ? &*replay : nullptr,
                               &tracer, result);

    std::vector<double> accepted;
    std::vector<double> by_kind[kDeltaKinds];
    double busy_ms = 0;
    for (std::size_t i = 0; i < run.ms.size(); ++i) {
        busy_ms += run.ms[i];
        if (!run.ok[i]) continue;
        accepted.push_back(run.ms[i]);
        by_kind[static_cast<int>(run.deltas[i].kind)].push_back(run.ms[i]);
    }
    const Latency latency = summarize(accepted);
    const double per_s =
        busy_ms > 0 ? static_cast<double>(accepted.size()) / (busy_ms / 1e3) : 0;
    fill_end_to_end(result, run.setup_s, latency, per_s);
    result.summary = {
        {"deltas", {static_cast<double>(run.ms.size()), "count"}},
        {"delta_p50_ms", {latency.p50_ms, "ms"}},
        {"delta_p90_ms", {latency.p90_ms, "ms"}},
        {"deltas_per_s", {per_s, "1/s"}},
    };
    for (int k = 0; k < kDeltaKinds; ++k)
        result.summary.push_back(
            {std::string("delta_p50_ms.") + to_string(static_cast<Delta_kind>(k)),
             {median(by_kind[k]), "ms"}});

    if (!options.trace) return result;

    // Per-delta means over the accepted deltas of the daemon's latency, the
    // replay's layer sum and the replay's whole transaction; per kind, the
    // replay's layer sum over the daemon's latency for each delta.
    double untraced_ms = 0, layer_ms = 0, traced_ms = 0;
    std::vector<double> replay_ratios[kDeltaKinds];
    double counts[kDeltaKinds] = {};
    for (std::size_t i = 0; i < run.ms.size(); ++i) {
        if (!run.ok[i]) continue;
        const int k = static_cast<int>(run.deltas[i].kind);
        untraced_ms += run.ms[i];
        layer_ms += replay->layer_ms[i];
        traced_ms += replay->traced_ms[i];
        replay_ratios[k].push_back(replay->layer_ms[i] / run.ms[i]);
        counts[k] += 1;
    }
    for (int k = 0; k < kDeltaKinds; ++k) {
        if (replay_ratios[k].size() < kReplayMinDeltas) continue;
        const double ratio = median(replay_ratios[k]);
        if (std::abs(ratio - 1) > kReplayTolerance)
            result.fail(std::string("traced replay of a ") +
                        to_string(static_cast<Delta_kind>(k)) +
                        " delta takes " + std::to_string(ratio) +
                        " times the daemon's latency (median): the replay no "
                        "longer matches Controller::transact");
    }

    const auto self = tracer.self_ns_by_name();
    const auto self_ms = [&](const std::string& name, double count) {
        const auto it = self.find(name);
        return it == self.end() || count == 0 ? 0.0 : it->second / 1e6 / count;
    };
    const double n = static_cast<double>(run.deltas.size());
    const double accepted_n = static_cast<double>(accepted.size());
    auto& m = result.per_layer;
    for (int k = 0; k < kDeltaKinds; ++k) {
        const std::string kind = to_string(static_cast<Delta_kind>(k));
        m["core.engine." + kind + "_ms"] = {self_ms("core.engine." + kind, counts[k]), "ms"};
        m["codegen.incremental." + kind + "_ms"] = {
            self_ms("codegen.incremental." + kind, counts[k]), "ms"};
        m["analysis.verify." + kind + "_ms"] = {
            self_ms("analysis.verify." + kind, counts[k]), "ms"};
    }
    const auto& w = replay->work;
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    m["core.engine.lp_encodings"] = {ratio(static_cast<double>(w.lp_encodings), n), "count"};
    m["core.engine.lp_patches"] = {ratio(static_cast<double>(w.lp_patches), n), "count"};
    m["core.engine.trees_built"] = {ratio(static_cast<double>(w.trees_built), n), "count"};
    const double hits = static_cast<double>(w.tree_cache_hits + w.automata_cache_hits);
    const double builds = static_cast<double>(w.trees_built + w.automata_built);
    m["core.engine.cache_hit_ratio"] = {ratio(hits, hits + builds), "ratio"};
    m["core.engine.warm_start_ratio"] = {
        ratio(static_cast<double>(w.warm_started_solves), static_cast<double>(w.solves)),
        "ratio"};
    m["analysis.lint_ms"] = {self_ms("analysis.lint", n), "ms"};
    m["codegen.diff_rules"] = {ratio(replay->diff_rules, n), "count"};
    m["codegen.table_rules"] = {ratio(replay->table_rules, n), "count"};
    m["daemon.rollback_ms"] = {self_ms("daemon.rollback", n), "ms"};
    m["daemon.publish_ms"] = {self_ms("daemon.publish", n), "ms"};
    m["daemon.fingerprint_ms"] = {self_ms("daemon.fingerprint", n), "ms"};
    // The daemon's latency outside every replayed call, delta by delta.
    m["daemon.self_ms"] = {ratio(untraced_ms - layer_ms, accepted_n), "ms"};
    m["daemon.attempts_per_delta"] = {ratio(static_cast<double>(run.attempts), n), "count"};
    m["daemon.refused"] = {static_cast<double>(run.refused), "count"};
    fill_trace_accounting(result, ratio(untraced_ms, accepted_n),
                          ratio(traced_ms, accepted_n), tracer, "daemon.transaction");
    if (!options.trace_out.empty()) tracer.write_jsonl(options.trace_out);
    return result;
}

}  // namespace perfbench
