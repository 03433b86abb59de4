// Session-layer end-to-end tests over real loopback TCP: ServiceAgent ↔
// ControllerService inside one process (controller pumped on a background
// thread, agents driven from the test thread).
//
// The load-bearing property throughout: the networked merge must produce
// EXACTLY the sample an in-process NwhhController produces from the same
// observations — not approximately, exactly — because both funnel through
// the same collect_entries() and the merge is a dedup-by-packet-id union.
// That also makes crash/replay absorption testable as strict equality.
//
// Fault-injection legs arm the kNetConnect / kNetRead / kNetWrite sites
// to fail connects, reads and writes on schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.hpp"
#include "net/agent.hpp"
#include "net/controller.hpp"
#include "qmax/qmax.hpp"

namespace {

namespace net = qmax::net;
namespace fault = qmax::fault;
using qmax::QMax;
using qmax::apps::Nmp;
using qmax::apps::NwhhController;
using qmax::apps::NwhhEntry;
using qmax::apps::PacketSample;

using R = QMax<PacketSample, double>;
using Agent = net::ServiceAgent<R>;

constexpr std::size_t kK = 256;
constexpr std::uint64_t kPackets = 30'000;
constexpr std::uint64_t kFlows = 64;

/// Deterministic coverage: which agents see which packet. Overlapping on
/// purpose (every 5th packet is seen by everyone) so the controller-side
/// dedup is always exercised.
bool observes(std::uint64_t agent, std::uint64_t pid, std::uint64_t agents) {
  return pid % agents == agent || pid % 5 == 0;
}

std::uint64_t flow_of(std::uint64_t pid) { return pid * 2'654'435'761u % kFlows; }

/// Controller pumped on a background thread. All access to the service —
/// from the pump and from test-thread inspection — goes through one
/// mutex, so single-threaded ControllerService stays race-free.
class CtlHarness {
 public:
  explicit CtlHarness(net::ControllerConfig cfg) : ctl_(cfg) {}

  ~CtlHarness() { shutdown(); }

  [[nodiscard]] bool start() {
    if (!ctl_.start()) return false;
    pump_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        {
          std::lock_guard<std::mutex> g(mu_);
          ctl_.run_once(5);
        }
        // std::mutex is not fair: re-locking at once starves with() and
        // await(), which then miss windows as short as a heartbeat
        // timeout. The pause lets a waiting test thread take the lock.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    return true;
  }

  void shutdown() {
    if (pump_.joinable()) {
      stop_.store(true, std::memory_order_relaxed);
      pump_.join();
    }
    ctl_.stop();
  }

  [[nodiscard]] std::uint16_t port() {
    std::lock_guard<std::mutex> g(mu_);
    return ctl_.port();
  }

  template <typename Fn>
  auto with(Fn&& fn) {
    std::lock_guard<std::mutex> g(mu_);
    return fn(ctl_);
  }

  /// Poll `pred` (under the lock) until true or the deadline passes.
  [[nodiscard]] bool await(std::function<bool(net::ControllerService&)> pred,
                           std::chrono::milliseconds limit =
                               std::chrono::seconds(5)) {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (std::chrono::steady_clock::now() < deadline) {
      if (with(pred)) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

 private:
  net::ControllerService ctl_;
  std::thread pump_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;
};

net::AgentConfig agent_cfg(std::uint64_t id, std::uint16_t port) {
  net::AgentConfig cfg;
  cfg.agent_id = id;
  cfg.port = port;
  cfg.k = kK;
  cfg.ack_timeout_ms = 5'000;
  return cfg;
}

/// Canonical multiset view of a merged sample.
std::vector<std::pair<std::uint64_t, double>> canon(
    std::span<const NwhhEntry> sample) {
  std::vector<std::pair<std::uint64_t, double>> v;
  for (const auto& e : sample) v.emplace_back(e.id.packet_id, e.val);
  std::sort(v.begin(), v.end());
  return v;
}

/// The single-process golden: one Nmp per agent over the identical
/// stream, merged through the identical NwhhController.
std::vector<std::pair<std::uint64_t, double>> golden_sample(
    std::uint64_t agents) {
  NwhhController ctl(kK);
  for (std::uint64_t a = 0; a < agents; ++a) {
    Nmp<R> nmp(kK, R(kK, 0.25));
    for (std::uint64_t pid = 0; pid < kPackets; ++pid) {
      if (observes(a, pid, agents)) nmp.observe(pid, flow_of(pid));
    }
    ctl.collect(nmp);
  }
  return canon(ctl.sample());
}

TEST(NetService, MergedTopQEqualsInProcessGolden) {
  const std::uint64_t agents = 4;
  CtlHarness h({.port = 0, .k = kK, .expected_agents = agents});
  ASSERT_TRUE(h.start());
  const std::uint16_t port = h.port();

  for (std::uint64_t a = 0; a < agents; ++a) {
    Agent ag(agent_cfg(a, port), R(kK, 0.25));
    ag.set_sleeper([](std::uint32_t) {});
    for (std::uint64_t pid = 0; pid < kPackets; ++pid) {
      if (observes(a, pid, agents)) ag.observe(pid, flow_of(pid));
      // A mid-stream epoch: intermediate deltas must not perturb the
      // final merge (entries they add that later fall out of the global
      // top-q are displaced by strictly smaller hashes).
      if (pid == kPackets / 2) {
        ASSERT_TRUE(ag.publish_epoch(1));
      }
    }
    ASSERT_TRUE(ag.publish_epoch(2));
    ag.heartbeat(2);
    ag.goodbye(2);
  }

  ASSERT_TRUE(h.await([](net::ControllerService& c) { return c.done(); }));
  const auto merged = h.with([](net::ControllerService& c) {
    return canon(c.merged().sample());
  });
  const auto expect = golden_sample(agents);
  ASSERT_EQ(merged.size(), expect.size());
  EXPECT_EQ(merged, expect);

  const double remote_total = h.with([](net::ControllerService& c) {
    return c.merged().total_packets();
  });
  EXPECT_GT(remote_total, 0.0);
  h.shutdown();
}

TEST(NetService, CrashedAgentReplayIsAbsorbedExactly) {
  const std::uint64_t agents = 3;
  CtlHarness h({.port = 0, .k = kK, .expected_agents = agents});
  ASSERT_TRUE(h.start());
  const std::uint16_t port = h.port();

  for (std::uint64_t a = 0; a < agents; ++a) {
    if (a == 1) {
      // The crasher: observes half its stream, publishes, then dies with
      // no GOODBYE (the Connection just closes — a dead TCP peer).
      {
        Agent doomed(agent_cfg(a, port), R(kK, 0.25));
        doomed.set_sleeper([](std::uint32_t) {});
        for (std::uint64_t pid = 0; pid < kPackets / 2; ++pid) {
          if (observes(a, pid, agents)) doomed.observe(pid, flow_of(pid));
        }
        ASSERT_TRUE(doomed.publish_epoch(1));
      }
      // The restart: same identity, replays the WHOLE stream from the
      // start (deterministic workload), re-publishes everything. The
      // controller's dedup must absorb the overlap invisibly.
      Agent revived(agent_cfg(a, port), R(kK, 0.25));
      revived.set_sleeper([](std::uint32_t) {});
      for (std::uint64_t pid = 0; pid < kPackets; ++pid) {
        if (observes(a, pid, agents)) revived.observe(pid, flow_of(pid));
      }
      ASSERT_TRUE(revived.publish_epoch(2));
      revived.goodbye(2);
    } else {
      Agent ag(agent_cfg(a, port), R(kK, 0.25));
      ag.set_sleeper([](std::uint32_t) {});
      for (std::uint64_t pid = 0; pid < kPackets; ++pid) {
        if (observes(a, pid, agents)) ag.observe(pid, flow_of(pid));
      }
      ASSERT_TRUE(ag.publish_epoch(1));
      ag.goodbye(1);
    }
  }

  ASSERT_TRUE(h.await([](net::ControllerService& c) { return c.done(); }));
  const auto merged = h.with([](net::ControllerService& c) {
    return canon(c.merged().sample());
  });
  EXPECT_EQ(merged, golden_sample(agents));

  // The crashed identity shows up as ONE session with reports from both
  // incarnations.
  h.with([](net::ControllerService& c) {
    const auto& sessions = c.sessions();
    auto it = sessions.find(1);
    ASSERT_NE(it, sessions.end());
    EXPECT_GE(it->second.reports, 2u);
    EXPECT_TRUE(it->second.goodbye);
  });
  h.shutdown();
}

TEST(NetService, SilentAgentMarkedStragglerThenRecovers) {
  CtlHarness h({.port = 0,
                .k = kK,
                .heartbeat_timeout_ms = 100,
                .expected_agents = 1});
  ASSERT_TRUE(h.start());

  Agent ag(agent_cfg(9, h.port()), R(kK, 0.25));
  ag.set_sleeper([](std::uint32_t) {});
  for (std::uint64_t pid = 0; pid < 2'000; ++pid) {
    ag.observe(pid, flow_of(pid));
  }
  ASSERT_TRUE(ag.publish_epoch(1));

  // Fall silent past the timeout: the controller must MARK the session,
  // never drop it (its merged entries stay valid).
  ASSERT_TRUE(h.await([](net::ControllerService& c) {
    return c.straggler_count() == 1;
  }));
  h.with([](net::ControllerService& c) {
    ASSERT_EQ(c.sessions().size(), 1u);
    EXPECT_GE(c.sessions().at(9).straggles, 1u);
  });

  // Speak again: the mark lifts and the stream resumes as if nothing
  // happened.
  ag.heartbeat(1);
  ASSERT_TRUE(h.await([](net::ControllerService& c) {
    return c.straggler_count() == 0;
  }));
  ASSERT_TRUE(ag.publish_epoch(2));
  ag.goodbye(2);
  ASSERT_TRUE(h.await([](net::ControllerService& c) { return c.done(); }));
  h.shutdown();
}

TEST(NetService, MismatchedKIsRefusedAtHello) {
  CtlHarness h({.port = 0, .k = kK});
  ASSERT_TRUE(h.start());

  net::AgentConfig cfg = agent_cfg(5, h.port());
  cfg.k = kK * 2;  // wrong sample size: merged guarantees would be void
  cfg.max_connect_attempts = 3;
  cfg.ack_timeout_ms = 200;
  Agent ag(cfg, R(kK * 2, 0.25));
  ag.set_sleeper([](std::uint32_t) {});
  for (std::uint64_t pid = 0; pid < 500; ++pid) ag.observe(pid, flow_of(pid));

  EXPECT_FALSE(ag.publish_epoch(1));
  h.with([](net::ControllerService& c) {
    EXPECT_TRUE(c.merged().sample().empty());
    EXPECT_TRUE(c.sessions().empty());
  });
  h.shutdown();
}

/// Disarm everything on scope exit so one test's schedule never leaks
/// into the next.
struct FaultQuiesce {
  ~FaultQuiesce() { fault::disarm_all(); }
};

TEST(NetService, PublishSurvivesInjectedConnectFailures) {
  FaultQuiesce quiesce;

  CtlHarness h({.port = 0, .k = kK, .expected_agents = 1});
  ASSERT_TRUE(h.start());

  // Every other connect attempt is refused: the backoff ladder must walk
  // through the failures and still land every epoch.
  fault::arm(fault::Site::kNetConnect, {.period = 2});

  Agent ag(agent_cfg(2, h.port()), R(kK, 0.25));
  ag.set_sleeper([](std::uint32_t) {});
  for (std::uint64_t pid = 0; pid < 10'000; ++pid) {
    ag.observe(pid, flow_of(pid));
  }
  ASSERT_TRUE(ag.publish_epoch(1));
  fault::disarm_all();
  ag.goodbye(1);

  ASSERT_TRUE(h.await([](net::ControllerService& c) { return c.done(); }));
  EXPECT_GT(fault::fires(fault::Site::kNetConnect), 0u);
  h.shutdown();
}

TEST(NetService, PublishSurvivesInjectedStreamResets) {
  FaultQuiesce quiesce;

  const std::uint64_t agents = 2;
  CtlHarness h({.port = 0, .k = kK, .expected_agents = agents});
  ASSERT_TRUE(h.start());
  const std::uint16_t port = h.port();

  // A burst of read- and write-path resets early in the run (bounded by
  // `limit` so the run terminates); the session layer must reconnect and
  // replay, and the merged sample must STILL be exact. The faults stay
  // armed only through the publish phase: REPORTs are ACKed and retried,
  // but GOODBYE is deliberately fire-and-forget, so the farewells happen
  // after disarming (in production a dropped GOODBYE is just a straggler
  // mark, not a correctness event).
  fault::arm(fault::Site::kNetWrite, {.period = 5, .limit = 4});
  fault::arm(fault::Site::kNetRead, {.period = 7, .limit = 4});

  std::vector<std::unique_ptr<Agent>> live;
  for (std::uint64_t a = 0; a < agents; ++a) {
    auto ag = std::make_unique<Agent>(agent_cfg(a, port), R(kK, 0.25));
    ag->set_sleeper([](std::uint32_t) {});
    for (std::uint64_t pid = 0; pid < kPackets; ++pid) {
      if (observes(a, pid, agents)) ag->observe(pid, flow_of(pid));
      if (pid == kPackets / 2) {
        ASSERT_TRUE(ag->publish_epoch(1));
      }
    }
    ASSERT_TRUE(ag->publish_epoch(2));
    live.push_back(std::move(ag));
  }
  fault::disarm_all();
  for (std::uint64_t a = 0; a < agents; ++a) live[a]->goodbye(2);

  ASSERT_TRUE(h.await([](net::ControllerService& c) { return c.done(); }));
  const auto merged = h.with([](net::ControllerService& c) {
    return canon(c.merged().sample());
  });
  EXPECT_EQ(merged, golden_sample(agents));
  h.shutdown();
}

}  // namespace
