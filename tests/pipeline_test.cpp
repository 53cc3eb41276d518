// End-to-end pipeline tests: execute-mode frames against serial references
// for every storage format, model-mode frame statistics, and configuration
// validation.
#include <unistd.h>
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <tuple>

#include "core/pipeline.hpp"
#include "data/writers.hpp"
#include "render/simd/backend.hpp"

namespace pvr::core {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir()
      : path_(fs::temp_directory_path() /
              ("pvr_pipeline_test_" + std::to_string(::getpid()))) {
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

ExperimentConfig small_config(format::FileFormat fmt, std::int64_t ranks) {
  ExperimentConfig cfg;
  cfg.num_ranks = ranks;
  cfg.dataset = format::supernova_desc(fmt, 24);
  cfg.variable = cfg.dataset.variables.front();
  cfg.image_width = 48;
  cfg.image_height = 48;
  cfg.render.step_voxels = 1.0;
  cfg.render.early_termination = 1.0;
  cfg.composite.policy = compose::CompositorPolicy::kOriginal;
  return cfg;
}

Image serial_reference(const ExperimentConfig& cfg) {
  Brick whole(Box3i{{0, 0, 0}, cfg.dataset.dims});
  data::SupernovaField(1530).fill_brick(
      data::variable_from_name(cfg.variable), cfg.dataset.dims, &whole);
  const render::Raycaster rc(cfg.dataset.dims, cfg.render);
  const render::Camera cam = render::Camera::default_view(
      cfg.dataset.dims, cfg.image_width, cfg.image_height);
  return rc.render_full(whole, cam,
                        render::TransferFunction::supernova());
}

class ExecuteFrameFormats
    : public ::testing::TestWithParam<format::FileFormat> {};

TEST_P(ExecuteFrameFormats, FullPipelineMatchesSerialRendering) {
  TempDir dir;
  const ExperimentConfig cfg = small_config(GetParam(), 8);
  const std::string path = dir.file("vol.dat");
  data::write_supernova_file(cfg.dataset, path, 1530);

  ParallelVolumeRenderer pvr(cfg);
  Image out;
  const FrameStats stats = pvr.execute_frame(path, &out);

  const Image reference = serial_reference(cfg);
  EXPECT_LT(out.max_difference(reference), 2e-3f)
      << "format " << format_name(GetParam());

  EXPECT_GT(stats.io_seconds, 0.0);
  EXPECT_GT(stats.render_seconds, 0.0);
  EXPECT_GT(stats.composite_seconds, 0.0);
  EXPECT_GT(stats.render.total_samples, 0);
  EXPECT_NEAR(stats.pct_io() + stats.pct_render() + stats.pct_composite(),
              100.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, ExecuteFrameFormats,
                         ::testing::Values(format::FileFormat::kRaw,
                                           format::FileFormat::kNetcdfRecord,
                                           format::FileFormat::kNetcdf64,
                                           format::FileFormat::kShdf));

TEST(ExecuteFrameTest, NonPowerOfTwoRanks) {
  TempDir dir;
  const ExperimentConfig cfg = small_config(format::FileFormat::kRaw, 12);
  const std::string path = dir.file("vol.raw");
  data::write_supernova_file(cfg.dataset, path, 1530);
  ParallelVolumeRenderer pvr(cfg);
  Image out;
  pvr.execute_frame(path, &out);
  EXPECT_LT(out.max_difference(serial_reference(cfg)), 2e-3f);
}

TEST(ExecuteFrameTest, ImprovedPolicySameImage) {
  TempDir dir;
  ExperimentConfig cfg = small_config(format::FileFormat::kRaw, 27);
  cfg.composite.policy = compose::CompositorPolicy::kFixed;
  cfg.composite.fixed_compositors = 3;
  const std::string path = dir.file("vol.raw");
  data::write_supernova_file(cfg.dataset, path, 1530);
  ParallelVolumeRenderer pvr(cfg);
  Image out;
  const FrameStats stats = pvr.execute_frame(path, &out);
  EXPECT_EQ(stats.composite.num_compositors, 3);
  EXPECT_LT(out.max_difference(serial_reference(cfg)), 2e-3f);
}

// Every FrameStats field, struct by struct, as comparable tuples.
auto fields(const net::ExchangeCost& x) {
  return std::tie(x.seconds, x.messages, x.local_messages, x.total_bytes,
                  x.max_hops, x.congestion_factor, x.link_seconds,
                  x.endpoint_seconds, x.latency_seconds, x.skew_seconds,
                  x.retry_seconds, x.bottleneck_link, x.bottleneck_node);
}
auto fields(const iolib::ReadResult& x) {
  const storage::IoCost& c = x.storage_cost;
  return std::tuple_cat(
      std::tie(x.seconds, x.open_seconds, x.useful_bytes, x.physical_bytes,
               x.accesses, c.seconds, c.accesses, c.physical_bytes,
               c.startup_seconds, c.server_seconds, c.ion_seconds,
               c.cap_seconds, c.client_seconds),
      fields(x.shuffle_cost));
}
auto fields(const compose::CompositeStats& x) {
  return std::tuple_cat(std::tie(x.seconds, x.blend_seconds,
                                 x.num_compositors, x.messages, x.bytes),
                        fields(x.exchange));
}
auto fields(const fault::FaultStats& x) {
  return std::tie(x.failed_nodes, x.failed_links, x.failed_ions,
                  x.failed_servers, x.degraded_servers, x.degraded_nodes,
                  x.undeliverable_messages, x.retries, x.rerouted_messages,
                  x.rerouted_hops, x.reassigned_partitions,
                  x.reassigned_aggregators, x.dropped_blocks,
                  x.substituted_partners, x.proxied_messages,
                  x.rerouted_clients, x.failover_extents, x.coverage);
}

void expect_same_stats(const FrameStats& a, const FrameStats& b) {
  EXPECT_EQ(std::tie(a.io_seconds, a.render_seconds, a.composite_seconds,
                     a.write_seconds),
            std::tie(b.io_seconds, b.render_seconds, b.composite_seconds,
                     b.write_seconds));
  EXPECT_EQ(fields(a.io), fields(b.io));
  EXPECT_EQ(fields(a.write_io), fields(b.write_io));
  EXPECT_EQ(std::tie(a.render.total_samples, a.render.max_rank_samples,
                     a.render.seconds, a.render.straggler_rank),
            std::tie(b.render.total_samples, b.render.max_rank_samples,
                     b.render.seconds, b.render.straggler_rank));
  EXPECT_EQ(fields(a.composite), fields(b.composite));
  EXPECT_EQ(fields(a.faults), fields(b.faults));
  EXPECT_EQ(std::tie(a.steal.policy, a.steal.chunks_stolen,
                     a.steal.bytes_replicated, a.steal.steal_seconds,
                     a.steal.straggler_before, a.steal.straggler_after),
            std::tie(b.steal.policy, b.steal.chunks_stolen,
                     b.steal.bytes_replicated, b.steal.steal_seconds,
                     b.steal.straggler_before, b.steal.straggler_after));
  EXPECT_EQ(std::tie(a.async.enabled, a.async.dependency, a.async.tasks,
                     a.async.edges, a.async.bsp_seconds,
                     a.async.reclaimed_seconds, a.async.lane_wait_seconds,
                     a.async.readahead_seconds),
            std::tie(b.async.enabled, b.async.dependency, b.async.tasks,
                     b.async.edges, b.async.bsp_seconds,
                     b.async.reclaimed_seconds, b.async.lane_wait_seconds,
                     b.async.readahead_seconds));
  EXPECT_EQ(std::tie(a.trace.enabled, a.trace.spans, a.trace.instants,
                     a.trace.frame_seconds, a.trace.io_seconds,
                     a.trace.render_seconds, a.trace.composite_seconds,
                     a.trace.exchange_seconds, a.trace.collective_seconds,
                     a.trace.storage_seconds),
            std::tie(b.trace.enabled, b.trace.spans, b.trace.instants,
                     b.trace.frame_seconds, b.trace.io_seconds,
                     b.trace.render_seconds, b.trace.composite_seconds,
                     b.trace.exchange_seconds, b.trace.collective_seconds,
                     b.trace.storage_seconds));
}

TEST(DefaultKernelTest, PacketKernelExactlyOnVectorBackends) {
  EXPECT_EQ(render::RenderConfig{}.kernel,
            render::simd::kVectorBackend ? render::RaycastKernel::kSimd
                                         : render::RaycastKernel::kScalar);
  EXPECT_EQ(ExperimentConfig{}.render.kernel, render::RenderConfig{}.kernel);
}

// The default-kernel execute frame against the same frame under the scalar
// reference march: image bytes and every FrameStats field, healthy and with
// scanline-chunk stealing (thief ranks render row bands), at 1 and 4 host
// threads.
class DefaultKernelFrame
    : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(DefaultKernelFrame, MatchesTheScalarFrame) {
  const auto [steal, threads] = GetParam();
  TempDir dir;
  ExperimentConfig cfg = small_config(format::FileFormat::kRaw, 27);
  cfg.host_threads = threads;
  if (steal) {
    cfg.steal.policy = steal::StealPolicy::kScanlineChunks;
    cfg.steal.chunks_per_block = 8;
  }
  const std::string path = dir.file("vol.raw");
  data::write_supernova_file(cfg.dataset, path, 1530);

  ParallelVolumeRenderer by_default(cfg);
  cfg.render.kernel = render::RaycastKernel::kScalar;
  ParallelVolumeRenderer scalar(cfg);
  Image a, b;
  const FrameStats sa = by_default.execute_frame(path, &a);
  const FrameStats sb = scalar.execute_frame(path, &b);
  if (steal) {
    EXPECT_GT(sa.steal.chunks_stolen, 0);
  }
  ASSERT_EQ(a.pixels().size(), b.pixels().size());
  EXPECT_EQ(std::memcmp(a.pixels().data(), b.pixels().data(),
                        a.pixels().size_bytes()),
            0);
  expect_same_stats(sa, sb);
}

INSTANTIATE_TEST_SUITE_P(StealAndThreads, DefaultKernelFrame,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values(1, 4)));

TEST(ModelFrameTest, PaperScaleRunsAndIsConsistent) {
  ExperimentConfig cfg;
  cfg.num_ranks = 4096;
  cfg.dataset = format::supernova_desc(format::FileFormat::kRaw, 1120);
  cfg.image_width = cfg.image_height = 1600;
  ParallelVolumeRenderer pvr(cfg);
  const FrameStats stats = pvr.model_frame();
  EXPECT_GT(stats.io_seconds, 0.0);
  EXPECT_GT(stats.render_seconds, 0.0);
  EXPECT_GT(stats.composite_seconds, 0.0);
  // Useful bytes ~ 5.3 GB plus ghost overlap.
  EXPECT_GT(double(stats.io.useful_bytes), 5.6e9);
  EXPECT_LT(double(stats.io.useful_bytes), 6.5e9);
  EXPECT_GT(stats.read_bandwidth(), 0.0);
}

TEST(ModelFrameTest, MoreRanksRenderFaster) {
  ExperimentConfig small;
  small.num_ranks = 64;
  small.dataset = format::supernova_desc(format::FileFormat::kRaw, 1120);
  ExperimentConfig large = small;
  large.num_ranks = 8192;
  const double t_small =
      ParallelVolumeRenderer(small).model_render().seconds;
  const double t_large =
      ParallelVolumeRenderer(large).model_render().seconds;
  EXPECT_GT(t_small, 50.0 * t_large);
}

TEST(ModelFrameTest, BinarySwapModelRuns) {
  ExperimentConfig cfg;
  cfg.num_ranks = 1024;
  cfg.dataset = format::supernova_desc(format::FileFormat::kRaw, 256);
  ParallelVolumeRenderer pvr(cfg);
  const auto bs = pvr.model_binary_swap();
  EXPECT_EQ(bs.messages, 1024 * 10);  // n log2 n
  EXPECT_GT(bs.seconds, 0.0);
}

TEST(ConfigTest, InvalidConfigsThrow) {
  ExperimentConfig cfg = small_config(format::FileFormat::kRaw, 0);
  EXPECT_THROW(ParallelVolumeRenderer{cfg}, Error);
  ExperimentConfig cfg2 = small_config(format::FileFormat::kRaw, 4);
  cfg2.variable = "nope";
  EXPECT_THROW(ParallelVolumeRenderer{cfg2}, Error);
  ExperimentConfig cfg3 = small_config(format::FileFormat::kRaw, 4);
  cfg3.camera = render::Camera::default_view(cfg3.dataset.dims, 10, 10);
  EXPECT_THROW(ParallelVolumeRenderer{cfg3}, Error);  // size mismatch
}

TEST(ConfigTest, BlocksCoverVolumeWithGhost) {
  const ExperimentConfig cfg = small_config(format::FileFormat::kRaw, 8);
  ParallelVolumeRenderer pvr(cfg);
  const auto blocks = pvr.io_blocks();
  ASSERT_EQ(blocks.size(), 8u);
  for (const auto& b : blocks) {
    EXPECT_FALSE(b.box.empty());
  }
  const auto infos = pvr.screen_blocks();
  ASSERT_EQ(infos.size(), 8u);
}

}  // namespace
}  // namespace pvr::core
