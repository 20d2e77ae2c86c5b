// Self-tests of the benchmark: generator determinism, the
// percentile rule, span self times and trace accounting, and a tiny run of every workload that
// must pass all of its correctness checks. Run with
// `python3 perfbench/run.py --test` (or ctest in the build directory).
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "bench.h"
#include "gen.h"
#include "topo/generators.h"
#include "trace.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                      \
    do {                                                                 \
        if (!(cond)) {                                                   \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,  \
                         __LINE__, #cond);                               \
            ++failures;                                                  \
        }                                                                \
    } while (0)

using namespace perfbench;

std::vector<std::string> churn_lines(std::uint64_t seed, int count) {
    const auto topo = merlin::topo::fat_tree(4);
    Churn_stream stream(seed, Churn_params{}, topo);
    std::vector<std::string> lines{stream.initial_policy()};
    for (int i = 0; i < count; ++i) lines.push_back(stream.next().line);
    return lines;
}

void same_seed_same_inputs() {
    CHECK(churn_lines(7, 200) == churn_lines(7, 200));
    CHECK(churn_lines(7, 200) != churn_lines(8, 200));
    CHECK(policy_text(provision_statements(7, 6, 0.05)) ==
          policy_text(provision_statements(7, 6, 0.05)));
    CHECK(policy_text(provision_statements(7, 6, 0.05)) !=
          policy_text(provision_statements(8, 6, 0.05)));
    CHECK(policy_text(forward_statements(7, 4, 42)) ==
          policy_text(forward_statements(7, 4, 42)));
    CHECK(zipf_order(7, 10080, 4096, 1.0) == zipf_order(7, 10080, 4096, 1.0));
    CHECK(zipf_order(7, 10080, 4096, 1.0) != zipf_order(8, 10080, 4096, 1.0));
}

void churn_mix_is_exact() {
    const auto topo = merlin::topo::fat_tree(4);
    Churn_stream stream(3, Churn_params{}, topo);
    int kinds[kDeltaKinds] = {};
    for (int i = 0; i < 400; ++i) ++kinds[static_cast<int>(stream.next().kind)];
    CHECK(kinds[0] == 200);  // 50% bandwidth
    CHECK(kinds[1] == 140);  // 35% remove/re-add
    CHECK(kinds[2] == 60);   // 15% fail/restore
}

void guaranteed_share_is_exact() {
    int guaranteed = 0;
    for (const Pair_statement& s : provision_statements(5, 6, 0.05))
        guaranteed += s.guarantee_mbps > 0 ? 1 : 0;
    CHECK(guaranteed == 143);  // round(0.05 * 2862)
}

void percentile_rule() {
    CHECK(min_samples_for(0.9) == 100);
    CHECK(min_samples_for(0.99) == 1000);
    std::vector<double> v;
    for (int i = 1; i <= 99; ++i) v.push_back(i);
    CHECK(!percentile(v, 0.9).has_value());  // only 9 samples beyond p90
    v.push_back(100);
    CHECK(samples_beyond(v.size(), 0.9) == 10);
    CHECK(percentile(v, 0.9) == 90.0);
    CHECK(percentile(v, 0.5) == 50.0);
    CHECK(median({3.0}) == 3.0);
    CHECK(median({}) == 0.0);
}

void span_self_times() {
    Tracer tracer;
    const int root = tracer.begin("root", 0);
    {
        Tracer::Scope child(&tracer, "child", 0);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    tracer.end(root);
    const std::vector<double> self = tracer.self_ns();
    CHECK(tracer.spans()[1].parent == root);
    CHECK(self[0] + self[1] == tracer.duration_ns(root));
    CHECK(self[1] >= 2e6 && self[0] >= 1e6);
    Tracer::Scope none(nullptr, "ignored", 0);  // a null tracer records nothing
    CHECK(tracer.spans().size() == 2);
}

// One operation whose untraced run did the same work as its traced one (no
// overhead): the accounting passes when a layer span covers the work and
// fails when the root does work outside every layer span.
Result account(bool work_outside_layers) {
    Tracer tracer;
    const int root = tracer.begin("op", 0);
    {
        Tracer::Scope layer(&tracer, "layer", 0);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (work_outside_layers)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    tracer.end(root);
    const double op_ms = tracer.duration_ns(root) / 1e6;
    Result result;
    fill_trace_accounting(result, op_ms, op_ms, tracer, "op");
    return result;
}

void trace_accounting() {
    const Result covered = account(false);
    CHECK(covered.failed == 0);
    CHECK(covered.per_layer.at("trace.layer_sum_op_ms").value >= 20);
    const Result uncovered = account(true);
    CHECK(uncovered.failed == 1);
    CHECK(uncovered.per_layer.at("trace.unattributed_op_ms").value >= 5);
    CHECK(uncovered.per_layer.at("trace.overhead_op_ms").value == 0);
}

void tiny_run(const char* name, Result (*run)(const Run_options&)) {
    for (const bool trace : {false, true}) {
        Run_options options;
        options.seed = 11;
        options.seconds = 0.2;
        options.trace = trace;
        options.tiny = true;
        const Result result = run(options);
        for (const std::string& e : result.errors)
            std::fprintf(stderr, "%s: %s\n", name, e.c_str());
        CHECK(result.attempted > 0);
        CHECK(result.failed == 0);
        const auto& metrics = trace ? result.per_layer : result.end_to_end;
        CHECK(!metrics.empty());
        if (!trace)
            for (const auto& [metric, value] : metrics) CHECK(value.value > 0);
        if (trace) {
            // The layer spans and the roots' own time make up the traced
            // operation; the accounting check itself counts in `failed`.
            const double traced = metrics.at("trace.traced_op_ms").value;
            CHECK(traced > 0);
            CHECK(std::abs(metrics.at("trace.layer_sum_op_ms").value +
                           metrics.at("trace.unattributed_op_ms").value - traced) <
                  1e-6 * traced);
        }
    }
}

}  // namespace

int main() {
    same_seed_same_inputs();
    churn_mix_is_exact();
    guaranteed_share_is_exact();
    percentile_rule();
    span_self_times();
    trace_accounting();
    tiny_run("churn", run_churn);
    tiny_run("provision", run_provision);
    tiny_run("forward", run_forward);
    if (failures > 0) {
        std::fprintf(stderr, "perfbench_tests: %d check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench_tests: all checks passed\n");
    return 0;
}
