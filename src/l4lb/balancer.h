// Katran-model L4 load balancer (userspace reproduction).
//
// Accepts flows on a VIP and forwards each to an L7 backend that Maglev
// picks over the healthy set. The pick happens once, at accept: from
// then on the flow's own record (its spliced client/backend pair) is
// the §5.1 connection table, so a health flap that reshuffles Maglev
// never moves an established flow. Operates at connection granularity
// — the userspace analogue of Katran's per-packet XDP forwarding.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "l4lb/consistent_hash.h"
#include "l4lb/health.h"
#include "metrics/metrics.h"
#include "netcore/connection.h"

namespace zdr::l4lb {

class L4Balancer {
 public:
  struct Options {
    HealthChecker::Options health{};
  };

  L4Balancer(EventLoop& loop, const SocketAddr& vip,
             std::vector<BackendTarget> backends, Options opts,
             MetricsRegistry* metrics = nullptr);
  ~L4Balancer();
  L4Balancer(const L4Balancer&) = delete;
  L4Balancer& operator=(const L4Balancer&) = delete;

  [[nodiscard]] SocketAddr vip() const { return acceptor_->localAddr(); }
  [[nodiscard]] HealthChecker& health() noexcept { return *health_; }
  [[nodiscard]] size_t activeFlows() const noexcept { return flows_.size(); }

  // Replaces the backend set (e.g. cluster resize in experiments).
  // Established flows keep the backend they were accepted onto.
  void setBackends(std::vector<BackendTarget> backends);

 private:
  struct Flow;

  void onAccept(TcpSocket sock);
  void rebuildHealthySet();
  [[nodiscard]] const BackendTarget* chooseBackend(uint64_t flowKey);
  void removeFlow(const std::shared_ptr<Flow>& flow);
  void bump(const std::string& name);

  EventLoop& loop_;
  Options opts_;
  MetricsRegistry* metrics_;
  std::vector<BackendTarget> backends_;
  std::vector<BackendTarget> healthy_;
  MaglevHash maglev_;  // over healthy_, in its order
  std::unique_ptr<HealthChecker> health_;
  std::unique_ptr<Acceptor> acceptor_;
  std::set<std::shared_ptr<Flow>> flows_;
};

}  // namespace zdr::l4lb
