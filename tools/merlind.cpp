// merlind — the long-running Merlin control-plane daemon.
//
// Compiles an initial policy, then serves it while accepting delta streams
// over a line-based control channel (stdin, a script file, or a unix
// socket), one command per line in the grammar of daemon::Command
// (src/daemon/daemon.h):
//
//   add [min=<rate>] [max=<rate>] <id> : <predicate> -> <path>
//   remove <id> | bandwidth <id> <min> [<max>] | fail <a> <b> | restore <a> <b>
//   redistribute <id>=<rate> ... | reload <policy-file>
//   stats | gen | drain [<ms>] | release <stream> | shutdown
//
// A line may carry a stream tag: "@<n> <command>" attributes the command to
// delta stream n (quarantine is per stream). Every response is one line:
// "ok gen=<g> kind=<k> ..." or "refused code=<c> gen=<g> kind=<k>
// reason=...". Deltas are transactional (see src/daemon/daemon.h); the
// served snapshot only ever moves old-complete -> new-complete.
//
// Fault injection (--fault "<kind>@<step>[x<count>],...") drives the
// crash/timeout/stream-corruption schedule of daemon::Fault_plan; steps
// count control commands in arrival order from 0.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "daemon/daemon.h"
#include "parser/parser.h"
#include "topo/generators.h"
#include "topo/parse.h"
#include "topo/topology.h"
#include "util/error.h"

namespace {

int usage() {
    std::cerr
        << "usage: merlind (--generate <spec> | <topology.dot>) <policy.mln>"
           " [options]\n"
           "  --script <file>       replay control lines from a file, then"
           " exit\n"
           "  --socket <path>       serve the control channel on a unix"
           " socket\n"
           "  --fault <plan>        inject faults:"
           " <kind>@<step>[x<count>],...\n"
           "  --fault-seed <n>      seed for corrupt-line mutations"
           " (default 1)\n"
           "  --max-retries <n>     transient-failure retries (default 2)\n"
           "  --backoff-ms <n>      retry backoff base (default 1)\n"
           "  --backoff-cap-ms <n>  retry backoff ceiling (default 50)\n"
           "  --quarantine <n>      refusals before a stream is quarantined"
           " (default 3, 0=off)\n"
           "  --drain-ms <n>        blue/green reader-drain budget"
           " (default 200)\n"
           "  --no-verify           skip the symbolic update-checker gate\n"
           "  --no-lint             skip the policy-linter gate\n"
           "  --readers <n>         background snapshot-reader threads\n"
           "  --bench-json <file>   write delta->publish latency"
           " percentiles\n"
           "  --quiet               no startup banner\n";
    return 2;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw merlin::Error("cannot read file: " + path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

// "@<n> <command>" -> (n, command); untagged lines report stream -1.
std::pair<int, std::string> split_stream_tag(const std::string& line) {
    if (line.empty() || line[0] != '@') return {-1, line};
    const std::size_t space = line.find(' ');
    try {
        const int stream = std::stoi(line.substr(1, space - 1));
        if (space == std::string::npos) return {stream, ""};
        return {stream, line.substr(space + 1)};
    } catch (...) {
        return {-1, line};  // not a tag; let the parser refuse the line
    }
}

// Accepted-delta latencies -> percentile summary JSON.
void write_bench_json(const std::string& path, std::vector<double> ms,
                      const merlin::daemon::Daemon_stats& stats,
                      std::uint64_t generation) {
    std::sort(ms.begin(), ms.end());
    const auto pct = [&](double p) {
        if (ms.empty()) return 0.0;
        const auto i = static_cast<std::size_t>(
            p * static_cast<double>(ms.size() - 1));
        return ms[i];
    };
    std::ofstream out(path);
    if (!out) throw merlin::Error("cannot write file: " + path);
    out << "{\n  \"deltas\": " << ms.size()
        << ",\n  \"accepted\": " << stats.accepted
        << ",\n  \"refused\": " << stats.refused
        << ",\n  \"retries\": " << stats.retries
        << ",\n  \"crashes\": " << stats.crashes
        << ",\n  \"generation\": " << generation
        << ",\n  \"p50_ms\": " << pct(0.50) << ",\n  \"p90_ms\": " << pct(0.90)
        << ",\n  \"p99_ms\": " << pct(0.99)
        << ",\n  \"max_ms\": " << (ms.empty() ? 0.0 : ms.back()) << "\n}\n";
}

// Background readers: hold snapshots mid-churn and check each one is
// internally consistent (checksum recomputes) with monotone generations —
// the RCU contract, exercised while the writer publishes.
struct Reader_pool {
    merlin::daemon::Controller& controller;
    std::atomic<bool> stop{false};
    std::atomic<bool> torn{false};
    std::vector<std::thread> threads;

    explicit Reader_pool(merlin::daemon::Controller& ctl, int count)
        : controller(ctl) {
        for (int i = 0; i < count; ++i)
            threads.emplace_back([this] {
                std::uint64_t last = 0;
                while (!stop.load(std::memory_order_relaxed)) {
                    const auto snap = controller.snapshot();
                    if (snap->checksum !=
                            merlin::daemon::snapshot_fingerprint(*snap) ||
                        snap->generation < last)
                        torn.store(true, std::memory_order_relaxed);
                    last = snap->generation;
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
                }
            });
    }
    ~Reader_pool() {
        stop.store(true);
        for (std::thread& t : threads) t.join();
    }
};

// One connected control client: read lines, apply, write responses.
// Returns false when a shutdown command was served.
bool serve_stream(merlin::daemon::Controller& controller, std::istream& in,
                  std::ostream& out, int default_stream,
                  std::vector<double>& latencies) {
    std::string line;
    while (std::getline(in, line)) {
        const auto [tag, text] = split_stream_tag(line);
        const merlin::daemon::Command command =
            merlin::daemon::parse_command(text);
        if (command.text.empty())
            continue;  // blank/comment line: no command, no response
        const int stream =
            tag >= 0 ? tag : (default_stream >= 0 ? default_stream : 0);
        const merlin::daemon::Response response =
            controller.apply(command, stream);
        out << response.to_line() << '\n' << std::flush;
        if (response.ok &&
            (merlin::daemon::is_delta(command.kind) ||
             command.kind == merlin::daemon::Command::Kind::reload))
            latencies.push_back(response.ms);
        if (command.kind == merlin::daemon::Command::Kind::shutdown)
            return false;
    }
    return true;
}

// Minimal line-oriented unix-socket server; each connection is one client
// (its own default stream id), served until shutdown.
int serve_socket(merlin::daemon::Controller& controller,
                 const std::string& path, std::vector<double>& latencies) {
    ::unlink(path.c_str());
    const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0) throw merlin::Error("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        throw merlin::Error("socket path too long: " + path);
    std::copy(path.begin(), path.end(), addr.sun_path);
    if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
            0 ||
        ::listen(listener, 4) < 0) {
        ::close(listener);
        throw merlin::Error("cannot bind control socket: " + path);
    }
    int next_stream = 1;
    bool running = true;
    while (running) {
        const int client = ::accept(listener, nullptr, nullptr);
        if (client < 0) break;
        // Slurp the client's command stream (clients send then half-close).
        std::string buffer;
        char chunk[4096];
        ssize_t got;
        while ((got = ::read(client, chunk, sizeof chunk)) > 0)
            buffer.append(chunk, static_cast<std::size_t>(got));
        std::istringstream in(buffer);
        std::ostringstream replies;
        running = serve_stream(controller, in, replies, next_stream++,
                               latencies);
        const std::string text = replies.str();
        ssize_t off = 0;
        while (off < static_cast<ssize_t>(text.size())) {
            const ssize_t wrote = ::write(client, text.data() + off,
                                          text.size() -
                                              static_cast<std::size_t>(off));
            if (wrote <= 0) break;
            off += wrote;
        }
        ::close(client);
    }
    ::close(listener);
    ::unlink(path.c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace merlin;

    core::Compile_options compile_options;
    daemon::Options options;
    std::vector<std::string> positional;
    std::string generate_spec;
    std::string script_file;
    std::string socket_path;
    std::string bench_json;
    daemon::Fault_plan faults;
    std::uint64_t fault_seed = 1;
    int readers = 0;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next_int = [&](long long lo, long long hi) {
            if (i + 1 >= argc) throw Error("missing value for " + arg);
            const long long v = std::stoll(argv[++i]);
            if (v < lo || v > hi) throw Error("out-of-range " + arg);
            return v;
        };
        try {
            if (arg == "--generate" && i + 1 < argc) {
                generate_spec = argv[++i];
            } else if (arg == "--script" && i + 1 < argc) {
                script_file = argv[++i];
            } else if (arg == "--socket" && i + 1 < argc) {
                socket_path = argv[++i];
            } else if (arg == "--fault" && i + 1 < argc) {
                faults = daemon::parse_fault_plan(argv[++i]);
            } else if (arg == "--fault-seed") {
                fault_seed = static_cast<std::uint64_t>(
                    next_int(0, std::numeric_limits<long long>::max()));
            } else if (arg == "--max-retries") {
                options.max_retries = static_cast<int>(next_int(0, 100));
            } else if (arg == "--backoff-ms") {
                options.backoff_base =
                    std::chrono::milliseconds(next_int(0, 10000));
            } else if (arg == "--backoff-cap-ms") {
                options.backoff_cap =
                    std::chrono::milliseconds(next_int(0, 60000));
            } else if (arg == "--quarantine") {
                options.quarantine_after =
                    static_cast<int>(next_int(0, 1000000));
            } else if (arg == "--drain-ms") {
                options.reload_drain_timeout =
                    std::chrono::milliseconds(next_int(0, 60000));
            } else if (arg == "--no-verify") {
                options.verify_updates = false;
            } else if (arg == "--no-lint") {
                options.lint_policies = false;
            } else if (arg == "--readers") {
                readers = static_cast<int>(next_int(0, 64));
            } else if (arg == "--bench-json" && i + 1 < argc) {
                bench_json = argv[++i];
            } else if (arg == "--quiet") {
                quiet = true;
            } else if (!arg.empty() && arg[0] == '-') {
                return usage();
            } else {
                positional.push_back(arg);
            }
        } catch (const Error& e) {
            std::cerr << "merlind: " << e.what() << '\n';
            return 2;
        } catch (const std::exception&) {
            return usage();
        }
    }
    const std::size_t expected = generate_spec.empty() ? 2u : 1u;
    if (positional.size() != expected) return usage();

    try {
        const topo::Topology network =
            generate_spec.empty()
                ? topo::parse_topology(read_file(positional[0]))
                : topo::from_spec(generate_spec);
        const ir::Policy policy =
            parser::parse_policy(read_file(positional.back()));

        daemon::Controller controller(policy, network, compile_options,
                                      options);
        controller.set_fault_plan(faults);
        if (!quiet) {
            const auto snap = controller.snapshot();
            std::cout << "merlind: serving gen=" << snap->generation
                      << " statements=" << snap->compilation.plans.size()
                      << " rules=" << snap->config.total_instructions()
                      << (snap->compilation.feasible ? ""
                                                     : " (INFEASIBLE)")
                      << '\n';
        }

        std::vector<double> latencies;
        int exit_code = 0;
        {
            std::optional<Reader_pool> pool;
            if (readers > 0) pool.emplace(controller, readers);

            if (!socket_path.empty()) {
                serve_socket(controller, socket_path, latencies);
            } else {
                std::string input;
                if (!script_file.empty()) {
                    input = read_file(script_file);
                } else {
                    std::stringstream buffer;
                    buffer << std::cin.rdbuf();
                    input = buffer.str();
                }
                std::vector<std::string> lines;
                std::istringstream split(input);
                for (std::string line; std::getline(split, line);)
                    lines.push_back(line);
                if (faults.has_stream_faults())
                    lines = daemon::apply_stream_faults(lines, faults,
                                                        fault_seed);
                std::string joined;
                for (const std::string& line : lines) joined += line + '\n';
                std::istringstream in(joined);
                serve_stream(controller, in, std::cout, -1, latencies);
            }
            if (pool && pool->torn.load()) {
                std::cerr << "merlind: reader observed a torn snapshot\n";
                exit_code = 3;
            }
        }

        if (!bench_json.empty())
            write_bench_json(bench_json, latencies, controller.stats(),
                             controller.generation());
        if (!quiet) {
            const daemon::Daemon_stats stats = controller.stats();
            std::cout << "merlind: exiting gen=" << controller.generation()
                      << " accepted=" << stats.accepted
                      << " refused=" << stats.refused
                      << " crashes=" << stats.crashes
                      << " retries=" << stats.retries
                      << " reloads=" << stats.reloads << '\n';
        }
        return exit_code;
    } catch (const Error& e) {
        std::cerr << "merlind: " << e.what() << '\n';
        return 2;
    }
}
