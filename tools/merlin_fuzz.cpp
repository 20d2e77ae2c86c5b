// merlin-fuzz — differential scenario fuzzing across the whole pipeline.
//
//   merlin-fuzz [--iters N] [--seed S] [options]     fuzz N random scenarios
//   merlin-fuzz --replay <repro-file> [options]      re-run one saved case
//
// Each iteration draws a random topology (all four generator families),
// policy and delta trace, drives a real core::Engine through it, and checks
// the cross-layer oracles (engine-vs-batch equivalence, link-capacity
// discipline, sink-tree-vs-simulator routes, codegen consistency, solver
// cross-checks) after every delta. The first failure is shrunk by
// statement/delta bisection and written as a replayable repro file.
//
// Options:
//   --iters <n>            scenarios to run (default 100)
//   --seed <n>             base seed; iteration i uses seed+i (default 1)
//   --topos a,b,c          topology pool (fat-tree:<k>, balanced-tree:<d>:<f>:<h>,
//                          campus:<n>, zoo:<switches>:<seed>)
//   --max-statements <n>   policy size knob (default 8)
//   --max-deltas <n>       trace length knob (default 8)
//   --long-traces <n>      append n add/tune/remove statement cycles to every
//                          trace (tag-recycling and diff-minimality stress)
//   --out <file>           repro path (default merlin-fuzz-repro.txt)
//   --replay <file>        replay one repro deterministically, then exit
//   --daemon-faults <n>    daemon mode: drive every scenario through a
//                          daemon::Controller as control lines, with up to n
//                          random faults injected per scenario (crashes at
//                          the publication points, solver timeouts, stream
//                          corruption/duplication/reordering); the snapshot-
//                          atomicity oracle joins the cross-layer set
//   --inject-bug <name>    deliberately corrupt a delta path to validate the
//                          harness: rate-skew | drop-restore
//   --rotate-solver        override the drawn solver: iteration i runs the
//                          exact solver in mode {full, colgen}[i%2], so a
//                          sweep exercises both provisioning attack plans
//                          (and the solver cross-oracle checks colgen
//                          against the full encoding)
//   --no-shrink            write the unshrunk failing scenario
//   --no-solver-oracles    skip the end-of-scenario solver cross-checks
//   --shrink-runs <n>      shrink re-execution budget (default 250)
//   --verbose              one line per scenario
//
// Exit status: 0 all scenarios passed; 1 an oracle tripped (repro written);
// 2 usage or file errors; 3 a generated scenario was invalid (harness bug).
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "daemon/fault.h"
#include "testgen/testgen.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

int usage() {
    std::cerr
        << "usage: merlin-fuzz [--iters N] [--seed S] [--topos a,b,c]\n"
           "       [--max-statements N] [--max-deltas N] [--long-traces N]\n"
           "       [--out FILE]\n"
           "       [--replay FILE] [--daemon-faults N]\n"
           "       [--inject-bug rate-skew|drop-restore]\n"
           "       [--rotate-solver]\n"
           "       [--no-shrink] [--no-solver-oracles] [--shrink-runs N]\n"
           "       [--verbose]\n";
    return 2;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw merlin::Error("cannot open file: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

// Whole-string non-negative integer parse.
std::optional<long long> parse_count(const std::string& text) {
    std::size_t consumed = 0;
    long long value = 0;
    try {
        value = std::stoll(text, &consumed);
    } catch (const std::logic_error&) {
        consumed = 0;
    }
    if (consumed != text.size() || text.empty() || value < 0)
        return std::nullopt;
    return value;
}

const char* status_name(merlin::testgen::Run_result::Status status) {
    using Status = merlin::testgen::Run_result::Status;
    switch (status) {
        case Status::passed: return "passed";
        case Status::failed: return "FAILED";
        case Status::invalid: return "INVALID";
    }
    return "?";
}

void print_failure(const merlin::testgen::Run_result& result) {
    std::cout << "oracle '" << result.oracle << "' tripped at "
              << (result.failing_step < 0
                      ? std::string("the initial build")
                      : "step " + std::to_string(result.failing_step))
              << ":\n  " << result.detail << '\n';
}

}  // namespace

int main(int argc, char** argv) {
    using namespace merlin;

    long long iters = 100;
    std::uint64_t seed = 1;
    testgen::Gen_options gen;
    testgen::Run_options run;
    std::string out_path = "merlin-fuzz-repro.txt";
    std::string replay_path;
    long long daemon_faults = -1;  // >= 0: daemon mode, max faults/scenario
    bool do_shrink = true;
    bool rotate_solver = false;
    int shrink_runs = 250;
    bool verbose = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::optional<std::string> {
            if (i + 1 >= argc) return std::nullopt;
            return std::string(argv[++i]);
        };
        if (arg == "--iters") {
            const auto v = value();
            const auto n = v ? parse_count(*v) : std::nullopt;
            if (!n) return usage();
            iters = *n;
        } else if (arg == "--seed") {
            const auto v = value();
            const auto n = v ? parse_count(*v) : std::nullopt;
            if (!n) return usage();
            seed = static_cast<std::uint64_t>(*n);
        } else if (arg == "--max-statements") {
            const auto v = value();
            const auto n = v ? parse_count(*v) : std::nullopt;
            if (!n || *n < 1) return usage();
            gen.max_statements = static_cast<int>(*n);
        } else if (arg == "--max-deltas") {
            const auto v = value();
            const auto n = v ? parse_count(*v) : std::nullopt;
            if (!n) return usage();
            gen.max_deltas = static_cast<int>(*n);
        } else if (arg == "--long-traces") {
            const auto v = value();
            const auto n = v ? parse_count(*v) : std::nullopt;
            if (!n) return usage();
            gen.long_trace_cycles = static_cast<int>(*n);
        } else if (arg == "--shrink-runs") {
            const auto v = value();
            const auto n = v ? parse_count(*v) : std::nullopt;
            if (!n) return usage();
            shrink_runs = static_cast<int>(*n);
        } else if (arg == "--topos") {
            const auto v = value();
            if (!v || v->empty()) return usage();
            gen.topo_specs = split(*v, ',');
        } else if (arg == "--out") {
            const auto v = value();
            if (!v) return usage();
            out_path = *v;
        } else if (arg == "--replay") {
            const auto v = value();
            if (!v) return usage();
            replay_path = *v;
        } else if (arg == "--daemon-faults") {
            const auto v = value();
            const auto n = v ? parse_count(*v) : std::nullopt;
            if (!n) return usage();
            daemon_faults = *n;
            run.daemon = true;
        } else if (arg == "--inject-bug") {
            const auto v = value();
            const auto inject = v ? testgen::parse_inject(*v) : std::nullopt;
            if (!inject) return usage();
            run.inject = *inject;
        } else if (arg == "--rotate-solver") {
            rotate_solver = true;
        } else if (arg == "--no-shrink") {
            do_shrink = false;
        } else if (arg == "--no-solver-oracles") {
            run.solver_oracles = false;
        } else if (arg == "--verbose") {
            verbose = true;
        } else {
            return usage();
        }
    }

    try {
        if (!replay_path.empty()) {
            const testgen::Scenario scenario =
                testgen::parse_scenario(read_file(replay_path));
            // A repro carrying fault lines was recorded in daemon mode;
            // replay it there even without an explicit --daemon-faults.
            if (!scenario.faults.empty()) run.daemon = true;
            const testgen::Run_result result =
                testgen::run_scenario(scenario, run);
            std::cout << "replay " << replay_path << ": "
                      << status_name(result.status) << " ("
                      << scenario.statements.size() << " statements, "
                      << result.deltas_applied << "/"
                      << scenario.deltas.size() << " deltas)\n";
            if (result.failed()) {
                print_failure(result);
                return 1;
            }
            if (result.status == testgen::Run_result::Status::invalid) {
                std::cout << "invalid scenario: " << result.detail << '\n';
                return 3;
            }
            return 0;
        }

        std::map<std::string, long long> family_counts;
        for (long long i = 0; i < iters; ++i) {
            const std::uint64_t iteration_seed =
                seed + static_cast<std::uint64_t>(i);
            testgen::Scenario scenario =
                testgen::random_scenario(gen, iteration_seed);
            if (rotate_solver) {
                // Pin the exact solver so the rotated mode actually runs
                // (greedy ignores solver_mode entirely).
                scenario.options.solver = merlin::core::Solver::mip;
                scenario.options.solver_mode =
                    i % 2 == 0 ? merlin::core::Solver_mode::full
                               : merlin::core::Solver_mode::colgen;
            }
            if (daemon_faults > 0) {
                // A separate stream (decorrelated from the generator's) so
                // the same iteration seed yields the same base scenario
                // with and without fault injection.
                Rng fault_rng(iteration_seed ^ 0xfa017ab1e5ull);
                scenario.faults = daemon::random_fault_plan(
                    fault_rng, static_cast<int>(scenario.deltas.size()),
                    static_cast<int>(daemon_faults));
            }
            ++family_counts[split(scenario.topo_spec, ':').front()];
            const testgen::Run_result result =
                testgen::run_scenario(scenario, run);
            if (verbose) {
                std::cout << "iter " << i << " seed " << iteration_seed << " "
                          << scenario.topo_spec << " ("
                          << scenario.statements.size() << " statements, "
                          << scenario.deltas.size() << " deltas";
                if (run.daemon)
                    std::cout << ", " << scenario.faults.events().size()
                              << " faults";
                std::cout << "): " << status_name(result.status) << '\n';
            }
            if (result.status == testgen::Run_result::Status::invalid) {
                std::cout << "merlin-fuzz: generator produced an invalid "
                             "scenario (seed "
                          << iteration_seed << "): " << result.detail << '\n';
                std::ofstream(out_path)
                    << testgen::format_scenario(scenario);
                std::cout << "scenario written to " << out_path << '\n';
                return 3;
            }
            if (result.failed()) {
                std::cout << "merlin-fuzz: scenario seed " << iteration_seed
                          << " (" << scenario.topo_spec << ") failed\n";
                print_failure(result);
                testgen::Scenario repro = scenario;
                if (do_shrink) {
                    repro = testgen::shrink(scenario, run, shrink_runs);
                    std::cout << "shrunk " << scenario.statements.size()
                              << " statements / " << scenario.deltas.size()
                              << " deltas / "
                              << scenario.faults.events().size()
                              << " faults to " << repro.statements.size()
                              << " / " << repro.deltas.size() << " / "
                              << repro.faults.events().size() << '\n';
                }
                std::ofstream(out_path) << testgen::format_scenario(repro);
                std::cout << "repro written to " << out_path
                          << " (re-run with --replay " << out_path << ")\n";
                return 1;
            }
        }
        std::cout << "merlin-fuzz: " << iters << " scenarios passed (seed "
                  << seed << "; families:";
        for (const auto& [family, count] : family_counts)
            std::cout << ' ' << family << "=" << count;
        std::cout << ")\n";
        return 0;
    } catch (const Error& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 2;
    }
}
