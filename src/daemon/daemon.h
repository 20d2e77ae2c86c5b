// The crash-safe control-plane daemon core: transactional deltas over a
// persistent core::Engine, published as atomic immutable snapshots.
//
// merlind (tools/) keeps a Controller alive and feeds it control lines;
// concurrent readers — stats queries, codegen emitters, netsim replay —
// copy the current Snapshot's `shared_ptr` out of a mutex-guarded slot and
// never observe a torn state: a snapshot is fully built before the pointer
// swap, immutable after it, and carries a monotone generation number plus a
// content checksum readers can recompute. The slot's mutex guards only the
// pointer copy or swap (never a build or a gate), so readers do not wait on
// a delta in flight.
//
// Every delta is a transaction. The engine itself is the shadow: readers
// only ever see the published snapshot, so the controller applies the delta
// to the engine off the serving path, gates the candidate with the policy
// linter and the symbolic update checker (analysis::Update_checker, which
// also carries the codegen::Incremental two-phase diff state), and only
// then swaps the snapshot pointer. On MIP infeasibility, verification or
// lint failure, argument errors, or an injected crash, the engine is
// rewound to its pre-delta checkpoint, the checker to its copy, and the
// caller gets a structured refusal — the serving snapshot and generation
// are untouched, bit for bit.
//
// Failure taxonomy: a solve truncated by the branch & bound node limit is
// *transient* (retried with exponential backoff + jitter and an escalating
// node budget); a *proven* infeasibility is permanent and refused at once.
// A stream that keeps sending refused commands is quarantined (graceful
// degradation: the last-good snapshot keeps serving) until released.
// Full-policy replacement runs blue/green: the replacement compiles into a
// fresh green engine while the blue one serves, passes the same gates
// (including the two-phase update proof against the serving tables), then
// atomically becomes the serving engine; drain() waits for readers of
// superseded snapshots.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dataplane.h"
#include "codegen/codegen.h"
#include "core/engine.h"
#include "daemon/fault.h"
#include "topo/topology.h"

namespace merlin::daemon {

// One published state: everything a reader needs, immutable after the
// pointer swap. `checksum` is snapshot_fingerprint() over the other fields,
// computed before publication — a reader recomputing it proves the
// snapshot it holds was never torn or mutated.
struct Snapshot {
    std::uint64_t generation = 0;
    core::Compilation compilation;
    topo::Topology topology;
    codegen::Configuration config;  // generated tables for this compilation
    std::uint64_t checksum = 0;
};

[[nodiscard]] std::uint64_t snapshot_fingerprint(const Snapshot& snapshot);

// Structured refusal codes, stable strings for the control channel.
enum class Refusal : std::uint8_t {
    none,         // not refused
    parse,        // control line did not parse
    argument,     // engine argument error (unknown id, duplicate, bad cap)
    quarantined,  // stream is quarantined; command not attempted
    infeasible,   // provisioning proven infeasible (or greedy exhausted)
    verify,       // symbolic update checker found an error
    lint,         // policy linter found an error
    timeout,      // transient solver timeouts exhausted the retry budget
    crash,        // injected crash tore the transaction down; recovered
};

[[nodiscard]] const char* to_string(Refusal code);

struct Response {
    bool ok = false;
    Refusal code = Refusal::none;
    std::string kind;    // command kind ("add", "bandwidth", "reload", ...)
    std::string detail;  // refusal reason, or query payload (stats / gen)
    std::uint64_t generation = 0;  // serving generation after the command
    int attempts = 1;              // transaction attempts (retries + 1)
    double ms = 0;                 // wall-clock of the command
    bool drained = true;           // reload: superseded readers drained

    explicit operator bool() const { return ok; }
    // Control-channel wire form: "ok gen=<n> kind=<k> ..." or
    // "refused code=<c> gen=<n> kind=<k> reason=<text>" (ms excluded:
    // responses stay byte-deterministic for golden scripts).
    [[nodiscard]] std::string to_line() const;
};

// A parsed control line. This grammar is the one delta vocabulary of the
// project: merlind's control channel, the `--updates` scripts of merlinc
// and merlin-verify (which accept only the deltas), and merlin-fuzz's
// daemon mode all go through parse_command. One command per line, '#'
// comments:
//
//   add [min=<rate>] [max=<rate>] <id> : <predicate> -> <path>
//   remove <id>
//   bandwidth <id> <min-rate> [<max-rate>]
//   fail <a> <b>            restore <a> <b>
//   redistribute <id>=<rate> [...]
//   reload <policy-file>    # blue/green full-policy replacement
//   stats | gen | shutdown
//   drain [<ms>]            # wait for superseded-snapshot readers
//   release <stream>        # lift a quarantine
//
// Rates are whole Mbps, or exact bits/sec with a "bps" suffix (e.g. "12",
// "12bps"); a rate that does not fit 64-bit bits/sec is malformed. The
// first six commands are the deltas (is_delta); apply_delta maps them onto
// core::Engine calls.
struct Command {
    enum class Kind : std::uint8_t {
        add,
        remove,
        bandwidth,
        fail,
        restore,
        redistribute,
        reload,
        stats,
        generation,
        drain,
        release,
        shutdown,
        invalid,
    };
    Kind kind = Kind::invalid;
    ir::Statement stmt;                 // add
    Bandwidth guarantee;                // add / bandwidth
    std::optional<Bandwidth> cap;       // add / bandwidth
    std::string id;                     // remove / bandwidth
    std::string node_a, node_b;         // fail / restore
    std::vector<std::pair<std::string, Bandwidth>> demands;  // redistribute
    std::string path;                   // reload: policy file
    int target_stream = -1;             // release
    std::chrono::milliseconds drain_timeout{100};  // drain
    std::string text;   // the line as parsed: comment cut, tokens 1-spaced
    std::string error;  // parse diagnostic when invalid
};

// Never throws: malformed input yields Kind::invalid with `error` set (the
// daemon must survive a corrupted control channel). Blank/comment-only
// lines also come back invalid, with an empty `text` and an empty-line
// diagnostic.
[[nodiscard]] Command parse_command(const std::string& line);
// Wire form of a well-formed command; parse_command(format_command(c))
// reproduces it (testgen renders its deltas through this).
[[nodiscard]] std::string format_command(const Command& command);

// True for the deltas: add, remove, bandwidth, fail, restore and
// redistribute. Reload, queries and admin commands are not deltas.
[[nodiscard]] bool is_delta(Command::Kind kind);

// One line of a delta script (the `--updates` file of merlinc and
// merlin-verify): a delta, or a blank/comment line (empty `text`). Throws
// merlin::Error naming the line for anything else.
[[nodiscard]] Command read_delta(const std::string& line);

// The one mapping of a delta onto core::Engine calls. Redistribute runs
// through the negotiator (paper §4.3): the engine's statements are wrapped
// in a pooled-cap envelope whose current division is adopted and then
// re-divided by demand, landing as cap-only set_bandwidth deltas. Throws
// merlin::Error on engine argument errors, on a rejected redistribution
// and on a command that is not a delta.
core::Update_result apply_delta(core::Engine& engine, const Command& command);

struct Options {
    int max_retries = 2;  // extra attempts for transient (timeout) failures
    std::chrono::milliseconds backoff_base{1};
    std::chrono::milliseconds backoff_cap{50};
    std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
    // Node-budget multiplier per retry (escalating: a truncated search gets
    // more room before the next verdict).
    int retry_node_limit_factor = 8;
    // Consecutive refusals before a stream is quarantined; 0 disables.
    int quarantine_after = 3;
    bool verify_updates = true;  // symbolic update-checker gate
    bool lint_policies = true;   // policy-linter gate (errors refuse)
    std::chrono::milliseconds reload_drain_timeout{200};
    // Test seam: replaces the real sleep for backoff and drain waits.
    std::function<void(std::chrono::milliseconds)> sleeper;
};

struct Daemon_stats {
    long long accepted = 0;
    long long refused = 0;
    long long crashes = 0;   // injected crashes recovered from
    long long retries = 0;   // transient-failure re-attempts
    long long reloads = 0;   // blue/green replacements committed
    long long quarantines = 0;
};

class Controller {
public:
    // Compiles the initial policy and publishes generation 1 (throws
    // exactly where core::Engine's constructor would).
    Controller(const ir::Policy& policy, const topo::Topology& topo,
               core::Compile_options compile_options = {},
               Options options = {});

    // One control line from `stream`; never throws (parse failures and
    // engine errors become structured refusals). Commands are serialized
    // internally — concurrent callers are safe, as are readers at any time.
    Response apply_line(const std::string& line, int stream = 0);
    Response apply(const Command& command, int stream = 0);
    // Blue/green full-policy replacement (the `reload` command's core).
    Response reload(const ir::Policy& policy, int stream = 0);

    // The serving snapshot: a pointer copy under the slot's own mutex
    // (held only for the copy, never across a delta); the returned state is
    // immutable and stays valid for as long as the pointer is held.
    [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const {
        std::lock_guard<std::mutex> lock(slot_mutex_);
        return slot_;
    }
    [[nodiscard]] std::uint64_t generation() const {
        return serving_generation_.load(std::memory_order_acquire);
    }

    // Waits (bounded) until every superseded snapshot has been released by
    // its readers; true when fully drained. Blocks writers while waiting.
    bool drain(std::chrono::milliseconds timeout);

    // Faults consumed by subsequent commands: step N = the Nth command
    // (apply/apply_line/reload call, any kind) since this call.
    void set_fault_plan(Fault_plan plan);

    [[nodiscard]] bool quarantined(int stream) const;
    void release(int stream);

    [[nodiscard]] Daemon_stats stats() const;

private:
    using Clock = std::chrono::steady_clock;

    // What the fault plan injects into one command (its fault step).
    struct Step_faults {
        int solver_timeouts = 0;  // leading attempts voided as timeouts
        bool crash_before_publish = false;
        bool crash_before_commit = false;  // between prepare and commit
    };
    // A refusal's cause, before the caller's rollback and bookkeeping.
    struct Refused {
        Refusal code = Refusal::none;
        std::string reason;
    };
    // One provisioning attempt: feasible, or failed transiently (a search
    // truncated by the node budget) or permanently (proven infeasible).
    struct Attempt {
        bool feasible = false;
        bool transient = false;
        std::string diagnostic;
    };

    // Consumes the next fault step and decodes what it injects.
    Step_faults next_step();
    // The transaction protocol of every delta: checkpoint, apply, gate,
    // publish-or-rollback.
    Response transact(const Command& command, int stream,
                      const Step_faults& faults, Clock::time_point start);
    Response reload_locked(const ir::Policy& policy, int stream,
                           const Step_faults& faults, Clock::time_point start);
    // Runs `attempt(node_budget)` until it yields a feasible candidate,
    // retrying transient failures with backoff and an escalating budget;
    // `discard` (if set) undoes each attempt that is not kept. Returns the
    // refusal once a failure is permanent or the retries are spent.
    std::optional<Refused> until_feasible(
        Response& response, int node_budget, const Step_faults& faults,
        const std::function<Attempt(int)>& attempt,
        const std::function<void()>& discard);
    // Gates a feasible candidate (lint, then the update checker — or the
    // incremental tables with verification off), builds its snapshot and
    // publishes it as the next generation, honouring the step's crash
    // points. On refusal nothing is published; the caller rewinds the
    // engine and the gate state. An infeasible candidate (only an initial
    // compile) is published ungated with empty tables.
    std::optional<Refused> gate_and_publish(const core::Engine& candidate,
                                            bool check_transition,
                                            const Step_faults& faults);

    // Refusal bookkeeping: stats, per-stream failure counts, quarantine.
    Response refuse(Response response, Refusal code, std::string reason,
                    int stream, Clock::time_point start);
    void publish_locked(std::shared_ptr<Snapshot> next);
    bool drain_locked(std::chrono::milliseconds timeout);
    void sleep_for(std::chrono::milliseconds delay);
    std::chrono::milliseconds backoff_delay(int attempt);
    [[nodiscard]] std::uint64_t next_jitter();

    Options options_;
    core::Compile_options compile_options_;

    mutable std::mutex mutex_;  // serializes writers and admin commands
    core::Engine engine_;
    analysis::Update_checker checker_;   // gate + snapshot config (verify on)
    codegen::Incremental incremental_;   // snapshot config (verify off)
    Fault_plan faults_;
    int command_step_ = 0;
    std::uint64_t jitter_state_;
    std::map<int, int> failures_;        // consecutive refusals per stream
    std::set<int> quarantined_;
    Daemon_stats stats_;
    std::vector<std::weak_ptr<const Snapshot>> retired_;

    mutable std::mutex slot_mutex_;  // guards slot_ (the pointer only)
    std::shared_ptr<const Snapshot> slot_;
    std::atomic<std::uint64_t> serving_generation_{0};
};

}  // namespace merlin::daemon
