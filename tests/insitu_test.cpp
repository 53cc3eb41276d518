// Tests for the in-situ pipeline variant and blocks-per-rank decomposition.
#include <unistd.h>
#include <gtest/gtest.h>

#include <filesystem>

#include "core/pipeline.hpp"
#include "data/writers.hpp"

namespace pvr::core {
namespace {

namespace fs = std::filesystem;

ExperimentConfig small_config(std::int64_t ranks, int blocks_per_rank = 1) {
  ExperimentConfig cfg;
  cfg.num_ranks = ranks;
  cfg.dataset = format::supernova_desc(format::FileFormat::kRaw, 24);
  cfg.variable = "pressure";
  cfg.image_width = cfg.image_height = 48;
  cfg.render.early_termination = 1.0;
  cfg.composite.policy = compose::CompositorPolicy::kOriginal;
  cfg.blocks_per_rank = blocks_per_rank;
  return cfg;
}

TEST(InsituTest, ExecuteInsituMatchesPosthocImage) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("pvr_insitu_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / "vol.raw").string();

  const ExperimentConfig cfg = small_config(8);
  data::write_supernova_file(cfg.dataset, path, 1530);

  ParallelVolumeRenderer posthoc(cfg);
  Image from_disk;
  const FrameStats pf = posthoc.execute_frame(path, &from_disk);

  ParallelVolumeRenderer insitu(cfg);
  Image from_memory;
  const data::SupernovaField field(1530);
  const FrameStats sf = insitu.execute_insitu_frame(field, &from_memory);

  // Identical data, identical rays: bit-identical images.
  EXPECT_FLOAT_EQ(from_disk.max_difference(from_memory), 0.0f);
  EXPECT_GT(pf.io_seconds, 0.0);
  EXPECT_DOUBLE_EQ(sf.io_seconds, 0.0);
  EXPECT_EQ(sf.render.total_samples, pf.render.total_samples);
  fs::remove_all(dir);
}

TEST(InsituTest, ModelInsituDropsExactlyTheIoStage) {
  ExperimentConfig cfg;
  cfg.num_ranks = 4096;
  cfg.dataset = format::supernova_desc(format::FileFormat::kRaw, 1120);
  cfg.image_width = cfg.image_height = 1600;
  ParallelVolumeRenderer renderer(cfg);
  const FrameStats posthoc = renderer.model_frame();
  const FrameStats insitu = renderer.model_insitu_frame();
  EXPECT_DOUBLE_EQ(insitu.io_seconds, 0.0);
  EXPECT_NEAR(posthoc.total_seconds() - insitu.total_seconds(),
              posthoc.io_seconds, 1e-9);
}

// Execute frames composite with the configured algorithm: the same message
// schedule the model prices, real pixels blended along it.
class ExecuteCompositor
    : public ::testing::TestWithParam<compose::CompositeAlgorithm> {};

TEST_P(ExecuteCompositor, ExecuteFrameHonoursTheConfiguredAlgorithm) {
  ExperimentConfig cfg = small_config(8);
  cfg.composite.algorithm = GetParam();
  cfg.composite.radix = 4;
  const data::SupernovaField field(1530);

  ParallelVolumeRenderer renderer(cfg);
  Image img;
  const FrameStats executed = renderer.execute_insitu_frame(field, &img);
  const FrameStats modeled = renderer.model_insitu_frame();
  EXPECT_EQ(executed.composite.messages, modeled.composite.messages);
  EXPECT_EQ(executed.composite.bytes, modeled.composite.bytes);
  // 8 ranks: three rounds of 8 pairwise swaps; radix-4 rounds {4, 2}
  // send 3 then 1 piece per rank.
  if (GetParam() == compose::CompositeAlgorithm::kBinarySwap) {
    EXPECT_EQ(executed.composite.messages, 24);
  } else if (GetParam() == compose::CompositeAlgorithm::kRadixK) {
    EXPECT_EQ(executed.composite.messages, 32);
  }

  // Only the blending order differs from direct-send.
  ExperimentConfig ds_cfg = cfg;
  ds_cfg.composite.algorithm = compose::CompositeAlgorithm::kDirectSend;
  ParallelVolumeRenderer direct_send(ds_cfg);
  Image ds_img;
  direct_send.execute_insitu_frame(field, &ds_img);
  EXPECT_LT(img.max_difference(ds_img), 1e-3f);

  // Bit-identical at any host thread count.
  cfg.host_threads = 1;
  ParallelVolumeRenderer serial(cfg);
  cfg.host_threads = 4;
  ParallelVolumeRenderer threaded(cfg);
  Image a, b;
  const FrameStats sa = serial.execute_insitu_frame(field, &a);
  const FrameStats sb = threaded.execute_insitu_frame(field, &b);
  EXPECT_EQ(a.max_difference(b), 0.0f);
  EXPECT_EQ(sa.composite.seconds, sb.composite.seconds);
  EXPECT_EQ(sa.composite.messages, sb.composite.messages);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ExecuteCompositor,
    ::testing::Values(compose::CompositeAlgorithm::kDirectSend,
                      compose::CompositeAlgorithm::kBinarySwap,
                      compose::CompositeAlgorithm::kRadixK));

class BlocksPerRank : public ::testing::TestWithParam<int> {};

TEST_P(BlocksPerRank, ExecuteFrameStillMatchesSerialReference) {
  const int bpr = GetParam();
  const fs::path dir =
      fs::temp_directory_path() /
      ("pvr_bpr_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / "vol.raw").string();

  const ExperimentConfig cfg = small_config(4, bpr);
  data::write_supernova_file(cfg.dataset, path, 1530);

  ParallelVolumeRenderer renderer(cfg);
  EXPECT_EQ(renderer.decomposition().num_blocks(), 4 * bpr);
  Image out;
  renderer.execute_frame(path, &out);

  // Serial reference.
  Brick whole(Box3i{{0, 0, 0}, cfg.dataset.dims});
  data::SupernovaField(1530).fill_brick(data::Variable::kPressure,
                                        cfg.dataset.dims, &whole);
  const render::Raycaster rc(cfg.dataset.dims, cfg.render);
  const render::Camera cam = render::Camera::default_view(
      cfg.dataset.dims, cfg.image_width, cfg.image_height);
  const Image reference =
      rc.render_full(whole, cam, render::TransferFunction::supernova());
  EXPECT_LT(out.max_difference(reference), 2e-3f) << "bpr=" << bpr;
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BlocksPerRank, ::testing::Values(1, 2, 4, 6));

TEST(BlocksPerRankTest, RoundRobinSpreadsBlocks) {
  ExperimentConfig cfg = small_config(4, 4);
  ParallelVolumeRenderer renderer(cfg);
  const auto blocks = renderer.io_blocks();
  ASSERT_EQ(blocks.size(), 16u);
  // Ranks 0..3 each own 4 blocks, interleaved.
  std::int64_t per_rank[4] = {0, 0, 0, 0};
  for (const auto& b : blocks) ++per_rank[b.rank];
  for (int r = 0; r < 4; ++r) EXPECT_EQ(per_rank[r], 4);
}

TEST(BlocksPerRankTest, ImprovesRenderBalanceInModel) {
  ExperimentConfig one = small_config(16, 1);
  one.dataset = format::supernova_desc(format::FileFormat::kRaw, 256);
  one.image_width = one.image_height = 512;
  ExperimentConfig four = one;
  four.blocks_per_rank = 4;

  const auto balance = [](const ExperimentConfig& cfg) {
    ParallelVolumeRenderer renderer(cfg);
    const auto est = renderer.model_render();
    return double(est.max_rank_samples) /
           (double(est.total_samples) / double(cfg.num_ranks));
  };
  EXPECT_LT(balance(four), balance(one));
}

TEST(BlocksPerRankTest, InvalidCountRejected) {
  ExperimentConfig cfg = small_config(4, 0);
  EXPECT_THROW(ParallelVolumeRenderer{cfg}, Error);
}

}  // namespace
}  // namespace pvr::core
