// Seeded input generators. Everything the program under test receives —
// policy text, control lines, packet headers — comes from here, and so do
// the references its outputs are checked against: the generator's own
// model of which statement each packet belongs to, which host owns each
// address and what the policy must look like after a delta stream. None of
// it is derived from the compiler's output.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "topo/topology.h"

namespace perfbench {

// Hosts are addressed by index: host i is named "h<i>" by the fat-tree
// generator and owns MAC i + 1 (Merlin addresses hosts in creation order).
[[nodiscard]] std::string host_name(int host);
[[nodiscard]] std::string mac_text(int host);
[[nodiscard]] std::uint64_t host_mac(int host);

// One host-pair statement, optionally refined by a TCP destination port.
struct Pair_statement {
    std::string id;
    int src = 0;
    int dst = 0;
    int port = -1;                    // tcp.dst, or -1 for none
    std::uint64_t guarantee_mbps = 0; // 0 = best effort
};

[[nodiscard]] std::string predicate_text(const Pair_statement& s);
// "[ s1 : ... -> .* ; ... ], min(s1, 10Mbps) and ..." — the whole policy.
[[nodiscard]] std::string policy_text(const std::vector<Pair_statement>& s);

// ------------------------------------------------------------------ churn

enum class Delta_kind : int { bandwidth = 0, structural = 1, link = 2 };
inline constexpr int kDeltaKinds = 3;
[[nodiscard]] const char* to_string(Delta_kind kind);

struct Delta {
    Delta_kind kind = Delta_kind::bandwidth;
    std::string line;  // one merlind control line
};

// The churn policy: pair statements on a fat-tree:4, 2 of them guaranteed.
// Only the sizes vary (the self-tests run a smaller policy).
inline constexpr int kChurnK = 4;
struct Churn_params {
    int statements = 8;  // pair statements in the initial policy
    int hosts = 8;       // host subset the pairs are drawn from
};

// The merlind write-path stream: bandwidth retunes of guaranteed pairs,
// remove-then-re-add of best-effort pairs (both round-robin in a seeded
// order), and a fail immediately followed by the restore of one
// aggregation-core link, dealt from shuffled blocks of 40 deltas holding
// 20 retunes, 7 remove/re-add pairs and 3 fail/restore pairs. Every other
// delta therefore runs with all links up, so the share of deltas served
// under a failure cannot vary by seed. Every command is valid and feasible by
// construction (guarantees stay far below every link's capacity), and the
// stream keeps a model of the policy the daemon must end up serving.
class Churn_stream {
public:
    Churn_stream(std::uint64_t seed, const Churn_params& params,
                 const merlin::topo::Topology& topo);

    [[nodiscard]] const std::string& initial_policy() const {
        return initial_;
    }
    Delta next();

    // The model after every delta handed out so far.
    [[nodiscard]] const std::map<std::string, Pair_statement>& statements()
        const {
        return model_;
    }
    [[nodiscard]] const std::optional<std::pair<std::string, std::string>>&
    failed_link() const {
        return failed_;
    }

private:
    Rng rng_;
    std::string initial_;
    std::map<std::string, Pair_statement> model_;
    std::vector<std::string> guaranteed_ids_;
    std::vector<std::string> best_effort_ids_;
    std::size_t next_guaranteed_ = 0;    // round-robin cursors
    std::size_t next_best_effort_ = 0;
    std::vector<std::pair<std::string, std::string>> core_links_;
    std::optional<std::pair<std::string, std::string>> failed_;
    std::optional<Pair_statement> pending_add_;  // re-added after its remove
    std::vector<Delta_kind> bag_;  // kinds still to deal (pairs = 1 card)
};

// -------------------------------------------------------------- provision

// All ordered host pairs of a k-ary fat tree (the paper's Table-7 traffic
// classes), a seeded `guaranteed_share` of them with a 1-10 Mbps guarantee.
[[nodiscard]] std::vector<Pair_statement> provision_statements(
    std::uint64_t seed, int k, double guaranteed_share);

// ---------------------------------------------------------------- forward

// Host pairs of a k-ary fat tree, each refined by `ports` distinct TCP
// destination ports: pairwise-disjoint statements, one flow each.
[[nodiscard]] std::vector<Pair_statement> forward_statements(
    std::uint64_t seed, int k, int ports);

// `length` flow indices in [0, flows) drawn from a Zipf(exponent)
// popularity over a seeded permutation of the flows.
[[nodiscard]] std::vector<std::uint32_t> zipf_order(std::uint64_t seed,
                                                    std::size_t flows,
                                                    std::size_t length,
                                                    double exponent);

}  // namespace perfbench
