#include "gen.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "util/strings.h"

namespace perfbench {

std::string host_name(int host) { return merlin::indexed("h", host); }

std::uint64_t host_mac(int host) { return static_cast<std::uint64_t>(host) + 1; }

std::string mac_text(int host) {
    const std::uint64_t mac = host_mac(host);
    char buf[24];
    std::snprintf(buf, sizeof buf, "%02x:%02x:%02x:%02x:%02x:%02x",
                  static_cast<unsigned>((mac >> 40) & 0xff),
                  static_cast<unsigned>((mac >> 32) & 0xff),
                  static_cast<unsigned>((mac >> 24) & 0xff),
                  static_cast<unsigned>((mac >> 16) & 0xff),
                  static_cast<unsigned>((mac >> 8) & 0xff),
                  static_cast<unsigned>(mac & 0xff));
    return buf;
}

std::string predicate_text(const Pair_statement& s) {
    std::string out =
        "eth.src = " + mac_text(s.src) + " and eth.dst = " + mac_text(s.dst);
    if (s.port >= 0) out += " and tcp.dst = " + std::to_string(s.port);
    return out;
}

std::string policy_text(const std::vector<Pair_statement>& statements) {
    std::string out = "[";
    std::string formula;
    for (std::size_t i = 0; i < statements.size(); ++i) {
        const Pair_statement& s = statements[i];
        out += i == 0 ? " " : " ;\n  ";
        out += s.id + " : " + predicate_text(s) + " -> .*";
        if (s.guarantee_mbps > 0) {
            if (!formula.empty()) formula += " and ";
            formula += "min(" + s.id + ", " +
                       std::to_string(s.guarantee_mbps) + "Mbps)";
        }
    }
    out += " ]";
    if (!formula.empty()) out += ",\n" + formula;
    return out + "\n";
}

const char* to_string(Delta_kind kind) {
    switch (kind) {
        case Delta_kind::bandwidth: return "bw";
        case Delta_kind::structural: return "struct";
        case Delta_kind::link: return "link";
    }
    return "?";
}

namespace {

// `count` distinct ordered pairs (src != dst) over hosts [0, hosts).
std::vector<std::pair<int, int>> distinct_pairs(Rng& rng, int hosts,
                                                int count) {
    std::vector<std::pair<int, int>> all;
    for (int s = 0; s < hosts; ++s)
        for (int d = 0; d < hosts; ++d)
            if (s != d) all.emplace_back(s, d);
    if (count > static_cast<int>(all.size()))
        throw std::invalid_argument("more statements than host pairs");
    for (std::size_t i = 0; i < static_cast<std::size_t>(count); ++i)
        std::swap(all[i], all[i + rng.below(all.size() - i)]);
    all.resize(static_cast<std::size_t>(count));
    return all;
}

int fat_tree_hosts(int k) { return k * k * k / 4; }

constexpr std::uint64_t kChurnShapeSeed = 0x5eed;

// A seeded automorphism of the k-ary fat tree's hosts: pods, edge switches
// within a pod and hosts within an edge switch are permuted. Policies that
// differ by one are structurally identical — the same path lengths and the
// same sharing — so runs under different seeds measure the same work on
// different concrete inputs.
std::vector<int> fat_tree_relabeling(Rng& rng, int k) {
    const int half = k / 2;
    const auto shuffled = [&rng](int n) {
        std::vector<int> v(static_cast<std::size_t>(n));
        std::iota(v.begin(), v.end(), 0);
        for (std::size_t i = 0; i + 1 < v.size(); ++i)
            std::swap(v[i], v[i + rng.below(v.size() - i)]);
        return v;
    };
    const std::vector<int> pods = shuffled(k);
    std::vector<int> relabel(static_cast<std::size_t>(fat_tree_hosts(k)));
    for (int pod = 0; pod < k; ++pod) {
        const std::vector<int> edges = shuffled(half);
        for (int e = 0; e < half; ++e) {
            const std::vector<int> slots = shuffled(half);
            for (int h = 0; h < half; ++h)
                relabel[static_cast<std::size_t>((pod * half + e) * half + h)] =
                    (pods[static_cast<std::size_t>(pod)] * half +
                     edges[static_cast<std::size_t>(e)]) * half +
                    slots[static_cast<std::size_t>(h)];
        }
    }
    return relabel;
}

}  // namespace

Churn_stream::Churn_stream(std::uint64_t seed, const Churn_params& params,
                           const merlin::topo::Topology& topo)
    : rng_(seed) {
    // The pair structure is drawn once from a fixed stream (a host subset,
    // then distinct pairs over it); the seed relabels it by a fat-tree
    // automorphism and drives everything else.
    Rng shape(kChurnShapeSeed);
    std::vector<int> hosts(static_cast<std::size_t>(fat_tree_hosts(kChurnK)));
    std::iota(hosts.begin(), hosts.end(), 0);
    for (std::size_t i = 0; i + 1 < hosts.size(); ++i)
        std::swap(hosts[i], hosts[i + shape.below(hosts.size() - i)]);
    hosts.resize(static_cast<std::size_t>(params.hosts));
    const auto pairs = distinct_pairs(shape, params.hosts, params.statements);
    const std::vector<int> relabel = fat_tree_relabeling(rng_, kChurnK);

    constexpr int kGuaranteed = 2;
    std::vector<Pair_statement> initial;
    for (int i = 0; i < params.statements; ++i) {
        const auto& [src, dst] = pairs[static_cast<std::size_t>(i)];
        Pair_statement s;
        s.id = merlin::indexed("s", i);
        s.src = relabel[static_cast<std::size_t>(hosts[static_cast<std::size_t>(src)])];
        s.dst = relabel[static_cast<std::size_t>(hosts[static_cast<std::size_t>(dst)])];
        if (i < kGuaranteed) s.guarantee_mbps = 10 + rng_.below(91);
        initial.push_back(s);
    }
    for (const Pair_statement& s : initial) {
        model_[s.id] = s;
        (s.guarantee_mbps > 0 ? guaranteed_ids_ : best_effort_ids_)
            .push_back(s.id);
    }
    if (best_effort_ids_.empty())
        throw std::invalid_argument("churn needs a best-effort statement");
    // Targets are visited round-robin in a seeded order, so every run
    // retunes and re-adds each statement about equally often.
    for (auto* ids : {&guaranteed_ids_, &best_effort_ids_})
        for (std::size_t i = 0; i + 1 < ids->size(); ++i)
            std::swap((*ids)[i], (*ids)[i + rng_.below(ids->size() - i)]);
    initial_ = policy_text(initial);

    for (int l = 0; l < topo.link_count(); ++l) {
        const auto& link = topo.link(l);
        const std::string& a = topo.node(link.a).name;
        const std::string& b = topo.node(link.b).name;
        if (a.starts_with('a') && b.starts_with('c')) core_links_.emplace_back(a, b);
        if (a.starts_with('c') && b.starts_with('a')) core_links_.emplace_back(b, a);
    }
}

Delta Churn_stream::next() {
    Delta delta;
    // The second half of a pair drawn last time: re-add what was removed,
    // restore what was failed.
    if (pending_add_) {
        const Pair_statement& s = *pending_add_;
        delta.kind = Delta_kind::structural;
        delta.line = "add " + s.id + " : " + predicate_text(s) + " -> .*";
        model_[s.id] = s;
        pending_add_.reset();
        return delta;
    }
    if (failed_) {
        delta.kind = Delta_kind::link;
        delta.line = "restore " + failed_->first + " " + failed_->second;
        failed_.reset();
        return delta;
    }
    // Kinds are dealt from a shuffled block holding the exact mix, so every
    // 40 deltas carry the same number of each kind whatever the seed. The
    // paired kinds (remove + re-add, fail + restore) are dealt as one card.
    if (bag_.empty()) {
        bag_.insert(bag_.end(), 20, Delta_kind::bandwidth);
        bag_.insert(bag_.end(), 7, Delta_kind::structural);
        bag_.insert(bag_.end(), 3, Delta_kind::link);
        for (std::size_t i = 0; i + 1 < bag_.size(); ++i)
            std::swap(bag_[i], bag_[i + rng_.below(bag_.size() - i)]);
    }
    delta.kind = bag_.back();
    bag_.pop_back();
    if (delta.kind == Delta_kind::bandwidth) {
        const std::string& id =
            guaranteed_ids_[next_guaranteed_++ % guaranteed_ids_.size()];
        Pair_statement& s = model_.at(id);
        std::uint64_t rate = 10 + rng_.below(91);
        if (rate == s.guarantee_mbps) rate = rate == 100 ? 10 : rate + 1;
        s.guarantee_mbps = rate;
        delta.line = "bandwidth " + id + " " + std::to_string(rate);
    } else if (delta.kind == Delta_kind::structural) {
        const std::string& id =
            best_effort_ids_[next_best_effort_++ % best_effort_ids_.size()];
        pending_add_ = model_.at(id);
        model_.erase(id);
        delta.line = "remove " + pending_add_->id;
    } else {
        failed_ = core_links_[rng_.below(core_links_.size())];
        delta.line = "fail " + failed_->first + " " + failed_->second;
    }
    return delta;
}

std::vector<Pair_statement> provision_statements(std::uint64_t seed, int k,
                                                 double guaranteed_share) {
    Rng rng(seed);
    const int hosts = fat_tree_hosts(k);
    std::vector<Pair_statement> out;
    for (int s = 0; s < hosts; ++s)
        for (int d = 0; d < hosts; ++d) {
            if (s == d) continue;
            Pair_statement st;
            st.id = merlin::indexed("t", static_cast<long long>(out.size()));
            st.src = s;
            st.dst = d;
            out.push_back(std::move(st));
        }
    // Exactly round(share * n) guaranteed statements, a seeded subset.
    std::vector<std::size_t> order(out.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const auto guaranteed = static_cast<std::size_t>(
        guaranteed_share * static_cast<double>(out.size()) + 0.5);
    for (std::size_t i = 0; i < guaranteed; ++i) {
        std::swap(order[i], order[i + rng.below(order.size() - i)]);
        out[order[i]].guarantee_mbps = 1 + rng.below(10);
    }
    return out;
}

std::vector<Pair_statement> forward_statements(std::uint64_t seed, int k,
                                               int ports) {
    Rng rng(seed);
    const int hosts = fat_tree_hosts(k);
    std::vector<Pair_statement> out;
    for (int s = 0; s < hosts; ++s)
        for (int d = 0; d < hosts; ++d) {
            if (s == d) continue;
            // Distinct ports per pair from the registered/dynamic range.
            std::vector<int> chosen;
            while (static_cast<int>(chosen.size()) < ports) {
                const int port = 1024 + static_cast<int>(rng.below(64512));
                if (std::find(chosen.begin(), chosen.end(), port) ==
                    chosen.end())
                    chosen.push_back(port);
            }
            for (const int port : chosen) {
                Pair_statement st;
                st.id = merlin::indexed("f", static_cast<long long>(out.size()));
                st.src = s;
                st.dst = d;
                st.port = port;
                out.push_back(std::move(st));
            }
        }
    return out;
}

std::vector<std::uint32_t> zipf_order(std::uint64_t seed, std::size_t flows,
                                      std::size_t length, double exponent) {
    Rng rng(seed);
    std::vector<std::uint32_t> by_rank(flows);
    std::iota(by_rank.begin(), by_rank.end(), 0u);
    for (std::size_t i = 0; i + 1 < flows; ++i)
        std::swap(by_rank[i], by_rank[i + rng.below(flows - i)]);
    std::vector<double> cdf(flows);
    double total = 0;
    for (std::size_t r = 0; r < flows; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
        cdf[r] = total;
    }
    std::vector<std::uint32_t> order(length);
    for (std::uint32_t& flow : order) {
        const double u = rng.unit() * total;
        const auto rank = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        flow = by_rank[std::min(rank, flows - 1)];
    }
    return order;
}

}  // namespace perfbench
