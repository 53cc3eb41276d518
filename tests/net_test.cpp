// Unit tests for pvr::net — torus routing, exchange cost model, tree model,
// fault-aware routing and exchange pricing, and the exchange's ring-run link
// tally checked against a hop-by-hop reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "machine/partition.hpp"
#include "net/torus.hpp"
#include "net/tree.hpp"
#include "obs/metrics.hpp"
#include "par/thread_pool.hpp"
#include "util/rng.hpp"

namespace pvr::net {
namespace {

machine::Partition make_partition(std::int64_t ranks) {
  return machine::Partition(machine::MachineConfig{}, ranks);
}

TEST(TorusRoutingTest, HopCountMatchesTorusDistance) {
  const auto part = make_partition(512 * 4);  // 8x8x8 nodes
  const TorusModel torus(part);
  for (std::int64_t a = 0; a < part.num_nodes(); a += 97) {
    for (std::int64_t b = 0; b < part.num_nodes(); b += 131) {
      std::int64_t visited = 0;
      const std::int64_t hops =
          torus.route(a, b, [&](const LinkId&) { ++visited; });
      EXPECT_EQ(hops, visited);
      EXPECT_EQ(hops, part.torus_hops(a, b));
    }
  }
}

TEST(TorusRoutingTest, RouteLinksFormAPath) {
  const auto part = make_partition(512 * 4);
  const TorusModel torus(part);
  // Each visited link's source must be reachable: first link starts at a.
  std::vector<LinkId> links;
  torus.route(3, 400, [&](const LinkId& l) { links.push_back(l); });
  ASSERT_FALSE(links.empty());
  EXPECT_EQ(links.front().node, 3);
}

TEST(TorusRoutingTest, SelfRouteIsEmpty) {
  const auto part = make_partition(64);
  const TorusModel torus(part);
  std::int64_t visited = 0;
  EXPECT_EQ(torus.route(5, 5, [&](const LinkId&) { ++visited; }), 0);
  EXPECT_EQ(visited, 0);
}

TEST(TorusExchangeTest, EmptyExchangeIsFree) {
  const auto part = make_partition(64);
  const TorusModel torus(part);
  const ExchangeCost cost = torus.exchange({});
  EXPECT_DOUBLE_EQ(cost.seconds, 0.0);
  EXPECT_EQ(cost.messages, 0);
}

TEST(TorusExchangeTest, LocalMessagesAreCheap) {
  const auto part = make_partition(64);
  const TorusModel torus(part);
  // Ranks 0 and 1 share node 0.
  const std::vector<Transfer> local = {{0, 1, 1 << 20}};
  const std::vector<Transfer> remote = {{0, 63, 1 << 20}};
  const ExchangeCost lc = torus.exchange(local);
  const ExchangeCost rc = torus.exchange(remote);
  EXPECT_EQ(lc.local_messages, 1);
  EXPECT_EQ(rc.local_messages, 0);
  EXPECT_LT(lc.seconds, rc.seconds);
  EXPECT_EQ(lc.max_hops, 0);
  EXPECT_GT(rc.max_hops, 0);
}

TEST(TorusExchangeTest, BytesAreConserved) {
  const auto part = make_partition(256);
  const TorusModel torus(part);
  std::vector<Transfer> transfers;
  std::int64_t expect = 0;
  for (std::int64_t r = 0; r < 256; r += 7) {
    transfers.push_back({r, (r * 13 + 5) % 256, 1000 + r});
    expect += 1000 + r;
  }
  const ExchangeCost cost = torus.exchange(transfers);
  EXPECT_EQ(cost.total_bytes, expect);
  EXPECT_EQ(cost.messages, std::int64_t(transfers.size()));
}

TEST(TorusExchangeTest, MoreBytesCostMore) {
  const auto part = make_partition(256);
  const TorusModel torus(part);
  const std::vector<Transfer> small = {{0, 255, 10 * 1024}};
  const std::vector<Transfer> large = {{0, 255, 10 * 1024 * 1024}};
  EXPECT_LT(torus.exchange(small).seconds, torus.exchange(large).seconds);
}

TEST(TorusExchangeTest, SmallMessageFloodCollapses) {
  // The paper's core compositing observation: the same total bytes cost far
  // more as many tiny messages than as few large ones.
  const auto part = make_partition(4096);
  const TorusModel torus(part);
  std::vector<Transfer> few, many;
  // 4096 messages of 64 KiB vs 64x more messages of 1 KiB (same bytes).
  for (std::int64_t r = 0; r < 4096; ++r) {
    few.push_back({r, (r + 1234) % 4096, 64 * 1024});
    for (int j = 0; j < 64; ++j) {
      many.push_back({r, (r * 64 + j * 67 + 1) % 4096, 1024});
    }
  }
  const ExchangeCost cf = torus.exchange(few);
  const ExchangeCost cm = torus.exchange(many);
  EXPECT_EQ(cf.total_bytes, cm.total_bytes);
  EXPECT_GT(cm.seconds, 2.0 * cf.seconds);
  EXPECT_GT(cm.congestion_factor, cf.congestion_factor);
}

TEST(TorusExchangeTest, HotspotReceiverIsSlower) {
  const auto part = make_partition(1024);
  const TorusModel torus(part);
  // Same message population, but one version converges on a single node.
  std::vector<Transfer> spread, incast;
  for (std::int64_t r = 4; r < 260; ++r) {
    spread.push_back({r, (r + 512) % 1024, 32 * 1024});
    incast.push_back({r, 0, 32 * 1024});
  }
  EXPECT_GT(torus.exchange(incast).seconds,
            torus.exchange(spread).seconds);
}

TEST(TorusExchangeTest, MessageEfficiencyCurve) {
  const auto part = make_partition(64);
  const TorusModel torus(part);
  EXPECT_DOUBLE_EQ(torus.message_efficiency(0), 1.0);
  EXPECT_LT(torus.message_efficiency(256), torus.message_efficiency(4096));
  EXPECT_GT(torus.message_efficiency(1 << 20), 0.99);
}

TEST(TorusExchangeTest, PeakBandwidthScalesWithNodes) {
  const auto small = make_partition(256);
  const auto large = make_partition(4096);
  const TorusModel ts(small), tl(large);
  EXPECT_GT(tl.peak_aggregate_bandwidth(65536),
            ts.peak_aggregate_bandwidth(65536));
  EXPECT_LT(tl.peak_aggregate_bandwidth(128),
            tl.peak_aggregate_bandwidth(65536));
}

TEST(TorusExchangeTest, SkewGrowsWithPartition) {
  const auto small = make_partition(64);
  const auto large = make_partition(32768);
  const std::vector<Transfer> one = {{0, 1, 0}};
  // Both partitions place ranks 0,1 on node 0 -> local; the skew term still
  // reflects partition size.
  const ExchangeCost cs = TorusModel(small).exchange(one);
  const ExchangeCost cl = TorusModel(large).exchange(one);
  EXPECT_LT(cs.skew_seconds, cl.skew_seconds);
}

TEST(TorusRoutingTest, WraparoundTieBreakPrefersPlusDirection) {
  // 8x8x8 nodes: nodes 0 and 4 are equidistant both ways around the x ring
  // (4 hops each); the route must deterministically take the + direction.
  const auto part = make_partition(2048);
  ASSERT_EQ(part.torus_dims(), (Vec3i{8, 8, 8}));
  const TorusModel torus(part);
  std::vector<LinkId> links;
  const std::int64_t hops =
      torus.route(0, 4, [&](const LinkId& l) { links.push_back(l); });
  EXPECT_EQ(hops, 4);
  ASSERT_EQ(links.size(), 4u);
  for (const LinkId& l : links) {
    EXPECT_EQ(l.dim, 0);
    EXPECT_EQ(l.dir, 0);  // + on ties
  }
  // A strictly shorter backward path must still go backward (0 -> 6 is two
  // hops in -x, six in +x).
  links.clear();
  EXPECT_EQ(torus.route(0, 6, [&](const LinkId& l) { links.push_back(l); }),
            2);
  for (const LinkId& l : links) EXPECT_EQ(l.dir, 1);
}

TEST(TorusExchangeTest, ZeroByteMessageStillCostsTime) {
  // A zero-byte message crosses the network and pays software overhead,
  // latency, and skew — it is not free.
  const auto part = make_partition(64);
  const TorusModel torus(part);
  const std::vector<Transfer> transfers = {{0, 63, 0}};
  const ExchangeCost cost = torus.exchange(transfers);
  EXPECT_EQ(cost.messages, 1);
  EXPECT_EQ(cost.total_bytes, 0);
  EXPECT_GT(cost.seconds, 0.0);
  EXPECT_GT(cost.endpoint_seconds, 0.0);
}

TEST(TorusFaultTest, EmptyPlanRouteMatchesPlainRoute) {
  const auto part = make_partition(256);
  const TorusModel torus(part);
  const fault::FaultPlan empty;
  std::int64_t visited = 0;
  const FaultRoute fr =
      torus.route_with_faults(0, 37, empty, [&](const LinkId&) { ++visited; });
  EXPECT_TRUE(fr.reachable);
  EXPECT_FALSE(fr.detoured);
  EXPECT_EQ(fr.hops, torus.route(0, 37, [](const LinkId&) {}));
  EXPECT_EQ(fr.hops, visited);
}

TEST(TorusFaultTest, DetoursAroundAFailedLink) {
  const auto part = make_partition(256);  // 64 nodes, 4x4x4
  const TorusModel torus(part);
  fault::FaultPlan plan;
  plan.fail_link(0, 0, 0);  // the one-hop +x link 0 -> 1
  std::vector<LinkId> links;
  const FaultRoute fr = torus.route_with_faults(
      0, 1, plan, [&](const LinkId& l) { links.push_back(l); });
  EXPECT_TRUE(fr.reachable);
  EXPECT_TRUE(fr.detoured);
  EXPECT_EQ(fr.hops, 3);  // shortest live path around the dead link
  ASSERT_EQ(links.size(), 3u);
  EXPECT_EQ(links.front().node, 0);
  for (const LinkId& l : links) EXPECT_TRUE(torus.link_usable(l, plan));
}

TEST(TorusFaultTest, DeadNodeKillsItsLinks) {
  const auto part = make_partition(256);
  const TorusModel torus(part);
  fault::FaultPlan plan;
  plan.fail_node(1);
  // Outgoing links of the dead node and links into it are both unusable.
  EXPECT_FALSE(torus.link_usable(LinkId{1, 0, 0}, plan));
  EXPECT_FALSE(torus.link_usable(LinkId{0, 0, 0}, plan));  // 0 -> 1
  EXPECT_TRUE(torus.link_usable(LinkId{0, 1, 0}, plan));   // 0 -> 4 lives
}

TEST(TorusFaultTest, DeadEndpointIsUnreachable) {
  const auto part = make_partition(256);
  const TorusModel torus(part);
  fault::FaultPlan plan;
  plan.fail_node(1);
  std::int64_t visited = 0;
  const FaultRoute fr =
      torus.route_with_faults(0, 1, plan, [&](const LinkId&) { ++visited; });
  EXPECT_FALSE(fr.reachable);
  EXPECT_EQ(fr.hops, 0);
  EXPECT_EQ(visited, 0);
}

TEST(TorusFaultTest, ExchangeCountsUndeliverableAndChargesRetries) {
  const auto part = make_partition(64);  // 16 nodes; node 15 = ranks 60-63
  const TorusModel torus(part);
  fault::FaultPlan plan;
  plan.fail_node(15);
  fault::FaultStats stats;
  const std::vector<Transfer> transfers = {{0, 60, 4096}};
  const ExchangeCost cost = torus.exchange(transfers, 1, &plan, &stats);
  EXPECT_EQ(stats.undeliverable_messages, 1);
  EXPECT_EQ(stats.retries, plan.spec().max_retries);
  // The message never enters the round, but the live sender stalls.
  EXPECT_EQ(cost.messages, 0);
  EXPECT_EQ(cost.total_bytes, 0);
  EXPECT_DOUBLE_EQ(
      cost.retry_seconds,
      double(plan.spec().max_retries) * plan.spec().retry_timeout);
  EXPECT_GT(cost.seconds, 0.0);
}

TEST(TorusFaultTest, ExchangeWithEmptyPlanIsIdenticalToHealthy) {
  const auto part = make_partition(256);
  const TorusModel torus(part);
  std::vector<Transfer> transfers;
  for (std::int64_t r = 0; r < 256; r += 5) {
    transfers.push_back({r, (r * 31 + 7) % 256, 2000 + r});
  }
  const fault::FaultPlan empty;
  fault::FaultStats stats;
  const ExchangeCost healthy = torus.exchange(transfers);
  const ExchangeCost faulty = torus.exchange(transfers, 1, &empty, &stats);
  EXPECT_EQ(healthy.seconds, faulty.seconds);
  EXPECT_EQ(healthy.messages, faulty.messages);
  EXPECT_EQ(healthy.total_bytes, faulty.total_bytes);
  EXPECT_EQ(healthy.link_seconds, faulty.link_seconds);
  EXPECT_EQ(healthy.endpoint_seconds, faulty.endpoint_seconds);
  EXPECT_EQ(stats.undeliverable_messages, 0);
  EXPECT_EQ(stats.rerouted_messages, 0);
}

TEST(TorusFaultTest, DetouredExchangeChargesTheExtraHops) {
  const auto part = make_partition(256);
  const TorusModel torus(part);
  fault::FaultPlan plan;
  plan.fail_link(0, 0, 0);
  fault::FaultStats stats;
  const std::vector<Transfer> transfers = {{0, 4, 65536}};  // node 0 -> 1
  const ExchangeCost cost = torus.exchange(transfers, 1, &plan, &stats);
  EXPECT_EQ(stats.rerouted_messages, 1);
  EXPECT_EQ(stats.rerouted_hops, 3);
  EXPECT_EQ(cost.max_hops, 3);
  EXPECT_EQ(cost.messages, 1);
}

// --- Link tally oracle -------------------------------------------------------

/// Reference pricing of one exchange: every transfer walks its route hop by
/// hop (route_with_faults, which is route() under an empty plan) into
/// per-link and per-node tallies, then the exchange's cost formulas fold
/// them. `link_bytes` holds every link that carried a message.
struct ReferenceExchange {
  ExchangeCost cost;
  fault::FaultStats stats;
  std::map<std::int64_t, std::int64_t> link_bytes;
};

ReferenceExchange reference_exchange(const TorusModel& torus,
                                     const std::vector<Transfer>& transfers,
                                     int rounds, const fault::FaultPlan& plan) {
  const auto& part = torus.partition();
  const auto& cfg = part.config();
  const std::int64_t nodes = part.num_nodes();
  struct Load {
    std::int64_t send_msgs = 0, recv_msgs = 0, send_bytes = 0, recv_bytes = 0,
                 local_bytes = 0, failed_sends = 0;
  };
  std::vector<std::int64_t> link_bytes(std::size_t(torus.num_links()), 0);
  std::vector<std::int64_t> link_msgs(std::size_t(torus.num_links()), 0);
  std::vector<Load> load(static_cast<std::size_t>(nodes));
  ReferenceExchange ref;
  ExchangeCost& cost = ref.cost;
  double pressure_events = 0.0;
  for (const Transfer& t : transfers) {
    const std::int64_t src = part.node_of_rank(t.src_rank);
    const std::int64_t dst = part.node_of_rank(t.dst_rank);
    FaultRoute fr;
    fr.reachable = !plan.node_failed(src) && !plan.node_failed(dst);
    if (fr.reachable) {
      fr = torus.route_with_faults(src, dst, plan, [&](const LinkId& l) {
        link_bytes[std::size_t(torus.link_index(l))] += t.bytes;
        ++link_msgs[std::size_t(torus.link_index(l))];
      });
    }
    if (!fr.reachable) {
      if (!plan.node_failed(src)) ++load[std::size_t(src)].failed_sends;
      ++ref.stats.undeliverable_messages;
      ref.stats.retries += plan.spec().max_retries;
      continue;
    }
    if (fr.detoured) {
      ++ref.stats.rerouted_messages;
      ref.stats.rerouted_hops += fr.hops;
    }
    ++cost.messages;
    cost.total_bytes += t.bytes;
    pressure_events += 2.0 * cfg.small_msg_pressure_bytes /
                       (cfg.small_msg_pressure_bytes + double(t.bytes));
    if (src == dst) {
      ++cost.local_messages;
      load[std::size_t(src)].local_bytes += t.bytes;
      continue;
    }
    ++load[std::size_t(src)].send_msgs;
    load[std::size_t(src)].send_bytes += t.bytes;
    ++load[std::size_t(dst)].recv_msgs;
    load[std::size_t(dst)].recv_bytes += t.bytes;
    cost.max_hops = std::max(cost.max_hops, fr.hops);
  }
  const double pressure = pressure_events / double(nodes) / double(rounds);
  cost.congestion_factor =
      1.0 + std::min(cfg.congestion_max,
                     std::pow(pressure / cfg.congestion_kappa,
                              cfg.congestion_gamma));
  for (std::size_t i = 0; i < link_bytes.size(); ++i) {
    if (link_msgs[i] == 0) continue;
    ref.link_bytes[std::int64_t(i)] = link_bytes[i];
    const double bytes = double(link_bytes[i]);
    const double bw = cfg.torus_link_bw *
                      torus.message_efficiency(bytes / double(link_msgs[i]));
    if (bytes / bw > cost.link_seconds) {
      cost.link_seconds = bytes / bw;
      cost.bottleneck_link = std::int64_t(i);
    }
  }
  const auto& spec = plan.spec();
  const double retry_penalty =
      plan.empty() ? 0.0 : double(spec.max_retries) * spec.retry_timeout;
  for (std::size_t node = 0; node < load.size(); ++node) {
    const Load& nl = load[node];
    const double hot_factor =
        double(nl.recv_msgs) > cfg.hotspot_indegree ? cfg.hotspot_factor : 1.0;
    const double msg_cost =
        cfg.msg_overhead * cost.congestion_factor *
        (double(nl.send_msgs) + double(nl.recv_msgs) * hot_factor);
    const double wire =
        double(nl.send_bytes + nl.recv_bytes) / cfg.torus_link_bw +
        double(nl.local_bytes) / (4.0 * cfg.torus_link_bw);
    const double retry_seconds = double(nl.failed_sends) * retry_penalty;
    const double endpoint = msg_cost + wire + retry_seconds;
    if (endpoint > cost.endpoint_seconds) {
      cost.endpoint_seconds = endpoint;
      cost.bottleneck_node = std::int64_t(node);
    }
    cost.retry_seconds = std::max(cost.retry_seconds, retry_seconds);
  }
  cost.latency_seconds = cfg.torus_max_latency;
  cost.skew_seconds =
      cfg.sync_skew_base +
      cfg.sync_skew_per_log2 * std::log2(std::max<double>(2.0, double(nodes)));
  cost.seconds = std::max(cost.link_seconds, cost.endpoint_seconds) +
                 cost.latency_seconds + cost.skew_seconds;
  return ref;
}

void expect_bitwise_equal(const ExchangeCost& a, const ExchangeCost& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(a.seconds), bits(b.seconds));
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.local_messages, b.local_messages);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.max_hops, b.max_hops);
  EXPECT_EQ(bits(a.congestion_factor), bits(b.congestion_factor));
  EXPECT_EQ(bits(a.link_seconds), bits(b.link_seconds));
  EXPECT_EQ(bits(a.endpoint_seconds), bits(b.endpoint_seconds));
  EXPECT_EQ(bits(a.latency_seconds), bits(b.latency_seconds));
  EXPECT_EQ(bits(a.skew_seconds), bits(b.skew_seconds));
  EXPECT_EQ(bits(a.retry_seconds), bits(b.retry_seconds));
  EXPECT_EQ(a.bottleneck_link, b.bottleneck_link);
  EXPECT_EQ(a.bottleneck_node, b.bottleneck_node);
}

/// Seeded transfers: random rank pairs (so routes wrap around rings), one in
/// eight kept on the sender's node, sizes from 0 bytes to 1 MiB. `ranks` is
/// a multiple of the 4 cores per node.
std::vector<Transfer> random_transfers(std::uint64_t seed,
                                       std::int64_t ranks, std::int64_t n) {
  Rng rng(seed);
  std::vector<Transfer> transfers;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto src = std::int64_t(rng.next_below(std::uint64_t(ranks)));
    std::int64_t dst = std::int64_t(rng.next_below(std::uint64_t(ranks)));
    if (rng.next_below(8) == 0) dst = src - src % 4 + (dst % 4);
    transfers.push_back({src, dst,
                         std::int64_t(rng.next_below(1 << 20)) *
                             std::int64_t(rng.next_below(4) != 0)});
  }
  return transfers;
}

TEST(TorusExchangeTest, RingRunTallyMatchesTheHopByHopWalk) {
  // 1x1x1, 1x1x2, 1x1x7, 3x3x3, 3x4x5 and 8x8x8 nodes: unit rings, the
  // two-node ring whose + and - links join the same pair, odd rings, and
  // even rings with exact half-ring ties (+ wins).
  for (const std::int64_t ranks : {4, 8, 28, 108, 240, 2048}) {
    const auto part = make_partition(ranks);
    const TorusModel torus(part);
    const Vec3i dims = part.torus_dims();
    SCOPED_TRACE("torus " + std::to_string(dims.x) + "x" +
                 std::to_string(dims.y) + "x" + std::to_string(dims.z));
    const std::int64_t nodes = part.num_nodes();
    // A failed + link on the longest ring forces detours; a dead node makes
    // some endpoints unreachable.
    const fault::FaultPlan healthy;
    const fault::FaultPlan faulty = [&] {
      fault::FaultPlan plan;
      if (nodes >= 2) plan.fail_link(0, dims.z > 1 ? 2 : 0, 0);
      if (nodes >= 4) plan.fail_node(nodes / 2 + 1);
      return plan;
    }();
    for (const fault::FaultPlan* plan : {&healthy, &faulty}) {
      const std::vector<Transfer> transfers =
          random_transfers(std::uint64_t(ranks), ranks, 1500);
      const int rounds = plan->empty() ? 1 : 3;
      const ReferenceExchange want =
          reference_exchange(torus, transfers, rounds, *plan);
      if (!plan->empty() && nodes >= 4) {
        EXPECT_GT(want.stats.rerouted_messages, 0);
        EXPECT_GT(want.stats.undeliverable_messages, 0);
      }
      EXPECT_GT(want.cost.local_messages, 0);
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(std::string(plan->empty() ? "healthy" : "faulty") +
                     ", threads " + std::to_string(threads));
        par::ThreadPool pool(threads);
        obs::MetricsRegistry metrics;
        fault::FaultStats stats;
        const ExchangeCost got = torus.exchange(transfers, rounds, plan,
                                                &stats, &metrics, &pool);
        expect_bitwise_equal(got, want.cost);
        EXPECT_EQ(metrics.indexed("net.link_bytes").by_index, want.link_bytes);
        EXPECT_EQ(stats.undeliverable_messages,
                  want.stats.undeliverable_messages);
        EXPECT_EQ(stats.retries, want.stats.retries);
        EXPECT_EQ(stats.rerouted_messages, want.stats.rerouted_messages);
        EXPECT_EQ(stats.rerouted_hops, want.stats.rerouted_hops);
      }
    }
  }
}

TEST(TreeModelTest, DepthAndBarrier) {
  const auto part = make_partition(1024);  // 256 nodes -> depth 8
  const TreeModel tree(part);
  EXPECT_EQ(tree.depth(), 8);
  EXPECT_DOUBLE_EQ(tree.barrier(),
                   2.0 * 8 * part.config().tree_latency);
}

TEST(TreeModelTest, CollectiveCostsOrdering) {
  const auto part = make_partition(1024);
  const TreeModel tree(part);
  // Reduce pays a combine derate over broadcast.
  EXPECT_GT(tree.reduce(1 << 20), tree.broadcast(1 << 20));
  // Allreduce costs at least a reduce.
  EXPECT_GE(tree.allreduce(1 << 20), tree.reduce(1 << 20));
  // Gather moves per-rank bytes times ranks through the root link.
  EXPECT_GT(tree.gather(1024), tree.broadcast(1024));
  EXPECT_DOUBLE_EQ(tree.gather(64), tree.scatter(64));
}

TEST(TreeModelTest, SingleNodeDepthIsOne) {
  const auto part = make_partition(1);
  const TreeModel tree(part);
  EXPECT_EQ(tree.depth(), 1);
}

}  // namespace
}  // namespace pvr::net
