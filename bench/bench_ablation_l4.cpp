// Ablation (DESIGN.md §5): L4 design choices the paper's §5.1 leans on.
//  * Maglev vs ring consistent hashing: remap disruption when the L7
//    set churns (a host drains, flaps, or returns).
//  * Per-flow record on/off: how many established flows would be
//    re-routed by a momentary health flap if every packet were hashed
//    afresh, against reading the backend from the flow's own record
//    (what L4Balancer and UdpForwarder do).
#include <unordered_map>

#include "bench_util.h"
#include "l4lb/consistent_hash.h"
#include "l4lb/hashing.h"

using namespace zdr;

namespace {

std::vector<std::string> makeBackends(size_t n) {
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back("l7-" + std::to_string(i));
  }
  return out;
}

double remapOnRemoval(l4lb::ConsistentHash& hash,
                      const std::vector<std::string>& full, size_t removed) {
  auto reduced = full;
  reduced.erase(reduced.begin(),
                reduced.begin() + static_cast<ptrdiff_t>(removed));
  hash.rebuild(full);
  // Snapshot full mapping by name.
  constexpr size_t kKeys = 20000;
  std::vector<std::string> before(kKeys);
  for (size_t k = 0; k < kKeys; ++k) {
    before[k] = full[*hash.pick(l4lb::mix64(k))];
  }
  hash.rebuild(reduced);
  size_t moved = 0;
  for (size_t k = 0; k < kKeys; ++k) {
    if (reduced[*hash.pick(l4lb::mix64(k))] != before[k]) {
      ++moved;
    }
  }
  return static_cast<double>(moved) / kKeys;
}

}  // namespace

int main() {
  bench::banner("Ablation — L4 consistent hashing and per-flow records",
                "§5.1: momentary topology shuffles must not re-route "
                "established flows; the flow's own record absorbs them");

  const auto backends = makeBackends(100);

  bench::section("remap fraction when k of 100 backends drop");
  std::printf("%10s %12s %12s %12s\n", "k removed", "ideal(k/100)",
              "ring", "maglev");
  for (size_t k : {1u, 5u, 10u, 20u}) {
    l4lb::RingHash ring;
    l4lb::MaglevHash maglev;
    double r = remapOnRemoval(ring, backends, k);
    double m = remapOnRemoval(maglev, backends, k);
    std::printf("%10zu %11.1f%% %11.1f%% %11.1f%%\n", k,
                static_cast<double>(k), r * 100, m * 100);
  }
  std::printf("(both stay near the k/100 ideal — only victims move)\n");

  bench::section("health flap: established flows re-routed");
  l4lb::MaglevHash hash;
  hash.rebuild(backends);
  constexpr size_t kFlows = 10000;

  // Establish flows; each records the backend it was opened onto.
  std::vector<std::pair<uint64_t, std::string>> flows;
  for (size_t k = 0; k < kFlows; ++k) {
    uint64_t key = l4lb::mix64(k + 99);
    flows.emplace_back(key, backends[*hash.pick(key)]);
  }
  // Flap: one backend blips out.
  auto flapped = backends;
  flapped.erase(flapped.begin() + 42);
  hash.rebuild(flapped);

  // The forwarders' lookup (UdpForwarder::flowFor): a live flow's own
  // record wins; only a new flow asks the hash.
  std::unordered_map<uint64_t, std::string> records(flows.begin(),
                                                    flows.end());
  auto route = [&](uint64_t key) {
    auto it = records.find(key);
    return it != records.end() ? it->second : flapped[*hash.pick(key)];
  };

  size_t movedNoRecord = 0;
  size_t movedWithRecord = 0;
  for (auto& [key, original] : flows) {
    if (flapped[*hash.pick(key)] != original) {
      ++movedNoRecord;
    }
    if (route(key) != original) {
      ++movedWithRecord;
    }
  }
  bench::row("flows re-routed hashing every packet",
             static_cast<double>(movedNoRecord), "");
  bench::row("flows re-routed reading the flow's record",
             static_cast<double>(movedWithRecord), "");
  std::printf("(the paper's remediation: per-flow state absorbs the flap "
              "entirely)\n");
  return 0;
}
