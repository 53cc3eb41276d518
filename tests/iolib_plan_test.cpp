// Oracle test for the two-phase collective read plan. A brute-force
// reference walks every requested row (VolumeLayout::subvolume_extents)
// byte range by byte range over the file domains' cb windows: a window is
// touched iff some row overlaps it, and the shuffle bytes of an
// (aggregator, rank) pair are the summed overlaps. The reference access
// list and message list are priced through the same storage and torus
// models, and everything CollectiveReader reports must match exactly:
// the Fig 9 AccessLog (order included), the ReadResult counters, and every
// ExchangeCost field bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <set>
#include <utility>

#include "iolib/collective_read.hpp"
#include "iolib/two_phase.hpp"
#include "render/decomposition.hpp"

namespace pvr::iolib {
namespace {

struct Env {
  explicit Env(std::int64_t ranks)
      : partition(machine::MachineConfig{}, ranks),
        rt(partition, runtime::Mode::kModel),
        oracle_rt(partition, runtime::Mode::kModel),
        storage(partition, machine::StorageConfig{}) {}
  machine::Partition partition;
  runtime::Runtime rt;         ///< runs CollectiveReader
  runtime::Runtime oracle_rt;  ///< prices the reference plan
  storage::StorageModel storage;
};

/// The brute-force plan: accesses in (domain, window) order and messages
/// in (aggregator, rank) order.
struct Reference {
  std::int64_t useful_bytes = 0;
  std::vector<storage::PhysicalAccess> accesses;
  std::vector<runtime::Message> messages;
  int rounds = 1;
};

Reference reference_plan(Env& env, const format::VolumeLayout& layout,
                         std::span<const int> vars,
                         std::span<const RankBlock> blocks,
                         const Hints& hints) {
  Reference ref;
  std::vector<std::pair<std::int64_t, format::Extent>> rows;  // (rank, row)
  std::int64_t lo = std::numeric_limits<std::int64_t>::max(), hi = 0;
  for (const RankBlock& b : blocks) {
    for (const int v : vars) {
      std::vector<format::Extent> extents;
      layout.subvolume_extents(v, b.box, &extents);
      for (const format::Extent& e : extents) {
        rows.emplace_back(b.rank, e);
        ref.useful_bytes += e.length;
        lo = std::min(lo, e.offset);
        hi = std::max(hi, e.offset + e.length);
      }
    }
  }
  // Same domain split and aggregators as the reader (Phase 2 is shared).
  const FileDomains domains(env.oracle_rt, env.storage, hints, lo, hi);
  std::set<std::pair<std::int64_t, std::int64_t>> touched;  // (d, c)
  std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> bytes;
  for (const auto& [rank, row] : rows) {
    for (std::int64_t pos = row.offset; pos < row.offset + row.length;) {
      std::int64_t d = 0;
      while (!(domains.lo(d) <= pos && pos < domains.hi(d))) ++d;
      const std::int64_t c = (pos - domains.lo(d)) / hints.cb_buffer_bytes;
      const std::int64_t end =
          std::min(row.offset + row.length, domains.window_hi(d, c));
      touched.insert({d, c});
      bytes[{domains.aggregator(d), rank}] += end - pos;
      pos = end;
    }
  }
  for (const auto& [d, c] : touched) {
    const std::int64_t w_lo = domains.window_lo(d, c);
    ref.accesses.push_back(storage::PhysicalAccess{
        w_lo, domains.window_hi(d, c) - w_lo, domains.aggregator(d)});
  }
  for (const auto& [pair, n] : bytes) {
    ref.messages.push_back(runtime::Message{pair.first, pair.second, 0, n, {}});
  }
  for (std::int64_t d = 0; d < domains.count(); ++d) {
    ref.rounds = std::max<std::int64_t>(
        ref.rounds, ceil_div(domains.hi(d) - domains.lo(d),
                             hints.cb_buffer_bytes));
  }
  return ref;
}

void expect_bitwise_equal(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void expect_same_exchange(const net::ExchangeCost& a,
                          const net::ExchangeCost& b) {
  expect_bitwise_equal(a.seconds, b.seconds, "seconds");
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.local_messages, b.local_messages);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.max_hops, b.max_hops);
  expect_bitwise_equal(a.congestion_factor, b.congestion_factor,
                       "congestion_factor");
  expect_bitwise_equal(a.link_seconds, b.link_seconds, "link_seconds");
  expect_bitwise_equal(a.endpoint_seconds, b.endpoint_seconds,
                       "endpoint_seconds");
  expect_bitwise_equal(a.latency_seconds, b.latency_seconds,
                       "latency_seconds");
  expect_bitwise_equal(a.skew_seconds, b.skew_seconds, "skew_seconds");
  expect_bitwise_equal(a.retry_seconds, b.retry_seconds, "retry_seconds");
  EXPECT_EQ(a.bottleneck_link, b.bottleneck_link);
  EXPECT_EQ(a.bottleneck_node, b.bottleneck_node);
}

/// Block-to-rank assignments: one block per rank in rank order, shuffled,
/// two blocks per rank, and every third block only (a sparse request whose
/// slab hulls span holes nobody wants).
enum class RankMap { kIdentity, kPermuted, kTwoBlocksPerRank, kSparse };
enum class Faults { kNone, kSharedAggregator, kWrappedAggregator };

class CollectiveReadPlanOracle
    : public ::testing::TestWithParam<format::FileFormat> {};

TEST_P(CollectiveReadPlanOracle, MatchesBruteForceRowWalk) {
  // 64 ranks = 16 nodes behind one ION: 8 aggregators at ranks 0, 8, ...,
  // 56. Killing nodes 0-1 (ranks 0-7) hands domain 0 to rank 8, which
  // already serves domain 1; killing nodes 14-15 (ranks 56-63) wraps
  // domain 7 around to rank 0, so aggregator order is not domain order.
  const std::int64_t ranks = 64;
  const format::DatasetDesc desc = format::supernova_desc(GetParam(), 24);
  const format::VolumeLayout layout(desc);
  render::Decomposition decomp(desc.dims, ranks);

  int configs = 0;
  for (const int nvars : {1, 2}) {
    if (nvars > int(desc.num_variables())) continue;
    const std::vector<int> vars =
        nvars == 1 ? std::vector<int>{0}
                   : std::vector<int>{int(desc.num_variables()) - 1, 0};
    for (const int ghost : {0, 1}) {
      for (const RankMap map :
           {RankMap::kIdentity, RankMap::kPermuted,
            RankMap::kTwoBlocksPerRank, RankMap::kSparse}) {
        std::vector<RankBlock> blocks;
        for (std::int64_t b = 0; b < decomp.num_blocks(); ++b) {
          if (map == RankMap::kSparse && b % 3 != 0) continue;
          const std::int64_t rank = map == RankMap::kPermuted
                                        ? (b * 37 + 11) % ranks
                                    : map == RankMap::kTwoBlocksPerRank
                                        ? b / 2
                                        : b;
          blocks.push_back(RankBlock{rank, decomp.ghost_box(b, ghost)});
        }
        // Rows are 24-48 B apart from 72 B holes: 40 B windows fall inside
        // holes (untouched) and split rows; 700 B windows split most slab
        // hulls and the ~7-55 KiB domains; 64 KiB windows cover domains.
        for (const std::int64_t cb :
             {std::int64_t{40}, std::int64_t{700}, 64 * KiB}) {
          for (const Faults faults :
               {Faults::kNone, Faults::kSharedAggregator,
                Faults::kWrappedAggregator}) {
            SCOPED_TRACE(::testing::Message()
                         << format::format_name(GetParam()) << " vars "
                         << nvars << " ghost " << ghost << " map "
                         << int(map) << " cb " << cb << " faults "
                         << int(faults));
            Env env(ranks);
            fault::FaultPlan plan;
            if (faults == Faults::kSharedAggregator) {
              plan.fail_node(0);
              plan.fail_node(1);
            } else if (faults == Faults::kWrappedAggregator) {
              plan.fail_node(14);
              plan.fail_node(15);
            }
            fault::FaultStats stats, oracle_stats;
            if (faults != Faults::kNone) {
              env.rt.set_faults(&plan, &stats);
              env.oracle_rt.set_faults(&plan, &oracle_stats);
            }
            Hints hints;
            hints.cb_buffer_bytes = cb;

            CollectiveReader reader(env.rt, env.storage, hints);
            storage::AccessLog log;
            const ReadResult got =
                reader.read_vars(layout, vars, blocks, nullptr, {}, &log);

            const Reference ref =
                reference_plan(env, layout, vars, blocks, hints);
            storage::AccessLog ref_log;
            const double open =
                model_open_cost(layout, blocks, env.storage, &ref_log);
            ref_log.record_all(ref.accesses);
            const storage::IoCost ref_storage = env.storage.read_cost(
                ref.accesses, env.oracle_rt.fault_plan(), &oracle_stats);
            const net::ExchangeCost ref_shuffle =
                env.oracle_rt.exchange_messages(ref.messages, nullptr,
                                                ref.rounds);

            ASSERT_EQ(log.accesses().size(), ref_log.accesses().size());
            for (std::size_t i = 0; i < log.accesses().size(); ++i) {
              const auto& a = log.accesses()[i];
              const auto& b = ref_log.accesses()[i];
              ASSERT_TRUE(a.offset == b.offset && a.bytes == b.bytes &&
                          a.client_rank == b.client_rank)
                  << "access " << i;
            }
            EXPECT_EQ(got.useful_bytes, ref.useful_bytes);
            EXPECT_EQ(log.stats().useful_bytes, ref.useful_bytes);
            EXPECT_EQ(got.accesses, ref_storage.accesses);
            EXPECT_EQ(got.physical_bytes, ref_storage.physical_bytes);
            expect_bitwise_equal(got.open_seconds, open, "open_seconds");
            expect_bitwise_equal(got.storage_cost.seconds,
                                 ref_storage.seconds, "storage seconds");
            if (faults == Faults::kNone) {
              // (Messages to or from dead ranks are not delivered.)
              EXPECT_EQ(got.shuffle_cost.messages,
                        std::int64_t(ref.messages.size()));
            }
            expect_same_exchange(got.shuffle_cost, ref_shuffle);
            expect_bitwise_equal(
                got.seconds, open + ref_storage.seconds + ref_shuffle.seconds,
                "seconds");
            EXPECT_EQ(stats.reassigned_aggregators,
                      oracle_stats.reassigned_aggregators);
            if (faults == Faults::kSharedAggregator) {
              // Domain 0 moved onto domain 1's aggregator: one message per
              // (aggregator, rank), not per (domain, rank).
              const FileDomains domains(env.oracle_rt, env.storage, hints,
                                        0, layout.file_bytes());
              EXPECT_EQ(domains.aggregator(0), domains.aggregator(1));
            }
            ++configs;
          }
        }
      }
    }
  }
  EXPECT_GT(configs, 0);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, CollectiveReadPlanOracle,
                         ::testing::Values(format::FileFormat::kRaw,
                                           format::FileFormat::kNetcdfRecord,
                                           format::FileFormat::kNetcdf64,
                                           format::FileFormat::kShdf),
                         [](const auto& p) {
                           std::string name = format::format_name(p.param);
                           std::erase(name, '-');
                           return name;
                         });

}  // namespace
}  // namespace pvr::iolib
