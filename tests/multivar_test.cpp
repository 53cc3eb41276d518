// Tests for multivariate reads and bivariate rendering.
#include <unistd.h>
#include <gtest/gtest.h>

#include <filesystem>

#include "core/pipeline.hpp"
#include "data/writers.hpp"
#include "iolib/collective_read.hpp"
#include "render/decomposition.hpp"
#include "steal/steal.hpp"

namespace pvr {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir()
      : path_(fs::temp_directory_path() /
              ("pvr_multivar_test_" + std::to_string(::getpid()))) {
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

TEST(MultivarReadTest, TwoVariablesMatchGroundTruth) {
  TempDir dir;
  const auto desc =
      format::supernova_desc(format::FileFormat::kNetcdfRecord, 16);
  const std::string path = dir.file("vol.nc");
  data::write_supernova_file(desc, path, 1530);

  machine::Partition part(machine::MachineConfig{}, 8);
  runtime::Runtime rt(part, runtime::Mode::kExecute);
  storage::StorageModel sm(part, machine::StorageConfig{});
  const format::VolumeLayout layout(desc);

  render::Decomposition decomp(desc.dims, 8);
  std::vector<iolib::RankBlock> blocks;
  std::vector<Brick> bricks;
  for (std::int64_t b = 0; b < 8; ++b) {
    blocks.push_back(iolib::RankBlock{b, decomp.ghost_box(b, 1)});
    bricks.push_back(Brick(blocks.back().box));  // var 0 of block b
    bricks.push_back(Brick(blocks.back().box));  // var 1 of block b
  }
  const int vars[] = {desc.variable_index("pressure"),
                      desc.variable_index("vz")};
  format::DiskFile file(path, format::DiskFile::OpenMode::kRead);
  iolib::CollectiveReader reader(rt, sm, iolib::Hints::untuned());
  const auto result = reader.read_vars(layout, vars, blocks, &file, bricks);
  std::int64_t expected_useful = 0;
  for (const auto& b : blocks) expected_useful += b.box.volume() * 4 * 2;
  EXPECT_EQ(result.useful_bytes, expected_useful);

  Brick truth_p, truth_vz;
  data::read_variable(layout, vars[0], file, &truth_p);
  data::read_variable(layout, vars[1], file, &truth_vz);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const Box3i& box = blocks[b].box;
    for (std::int64_t z = box.lo.z; z < box.hi.z; ++z) {
      for (std::int64_t y = box.lo.y; y < box.hi.y; ++y) {
        for (std::int64_t x = box.lo.x; x < box.hi.x; ++x) {
          ASSERT_EQ(bricks[b * 2].at(x, y, z), truth_p.at(x, y, z));
          ASSERT_EQ(bricks[b * 2 + 1].at(x, y, z), truth_vz.at(x, y, z));
        }
      }
    }
  }
}

TEST(MultivarReadTest, RecordFormatDensityAmortizes) {
  // Reading more variables from the record-interleaved file raises the data
  // density: the physical bytes barely grow while useful bytes multiply —
  // the paper's argument for reading netCDF directly.
  core::ExperimentConfig cfg;
  cfg.num_ranks = 512;
  cfg.dataset =
      format::supernova_desc(format::FileFormat::kNetcdfRecord, 256);
  cfg.image_width = cfg.image_height = 256;
  core::ParallelVolumeRenderer renderer(cfg);

  const auto one = renderer.model_io_vars({"pressure"});
  const auto three = renderer.model_io_vars({"pressure", "density", "vx"});
  const auto five =
      renderer.model_io_vars({"pressure", "density", "vx", "vy", "vz"});
  EXPECT_NEAR(double(three.useful_bytes), 3.0 * double(one.useful_bytes),
              double(one.useful_bytes) * 0.01);
  EXPECT_GT(three.data_density(), one.data_density());
  EXPECT_GT(five.data_density(), three.data_density());
  // Physical bytes grow far slower than useful bytes.
  EXPECT_LT(double(five.physical_bytes), 2.0 * double(one.physical_bytes));
  // And time per useful byte improves.
  EXPECT_LT(five.seconds / 5.0, one.seconds);
}

TEST(BivariateTfTest, ColorFromAOpacityFromB) {
  const render::BivariateTransferFunction tf(
      render::TransferFunction::supernova(),
      render::TransferFunction::grayscale_ramp(0.8f));
  // Zero opacity-variable: transparent regardless of color variable.
  EXPECT_FLOAT_EQ(tf.sample(0.9f, 0.0f).a, 0.0f);
  // Opacity follows the second argument only.
  const Rgba lo = tf.sample(0.5f, 0.25f);
  const Rgba hi = tf.sample(0.5f, 1.0f);
  EXPECT_LT(lo.a, hi.a);
  // Hue follows the first argument: different color values, same alpha.
  const Rgba a = tf.sample(0.3f, 0.5f);
  const Rgba b = tf.sample(0.9f, 0.5f);
  EXPECT_FLOAT_EQ(a.a, b.a);
  EXPECT_GT(max_channel_diff(a, b), 0.01f);
}

TEST(BivariateTfTest, DegeneratesToUnivariate) {
  // Same variable for color and opacity == the univariate transfer
  // function, sample for sample.
  const render::TransferFunction uni = render::TransferFunction::supernova();
  const render::BivariateTransferFunction bi(uni, uni);
  for (float v = 0.0f; v <= 1.0f; v += 0.1f) {
    EXPECT_NEAR(max_channel_diff(bi.sample(v, v, 0.7f), uni.sample(v, 0.7f)),
                0.0f, 1e-6f);
  }
}

TEST(BivariateRenderTest, SameBrickMatchesUnivariateRender) {
  const Vec3i dims{20, 20, 20};
  Brick whole(Box3i{{0, 0, 0}, dims});
  data::SupernovaField(4).fill_brick(data::Variable::kPressure, dims,
                                     &whole);
  render::RenderConfig cfg;
  cfg.early_termination = 1.0;
  const render::Raycaster rc(dims, cfg);
  const render::Camera cam = render::Camera::default_view(dims, 40, 40);
  const render::TransferFunction uni = render::TransferFunction::supernova();

  const render::SubImage a =
      rc.render_block(whole, Box3i{{0, 0, 0}, dims}, cam, uni);
  const render::SubImage b = rc.render_block_bivariate(
      whole, whole, Box3i{{0, 0, 0}, dims}, cam,
      render::BivariateTransferFunction(uni, uni));
  ASSERT_EQ(a.rect, b.rect);
  ASSERT_EQ(a.samples, b.samples);
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.pixels.size(); ++i) {
    worst = std::max(worst, max_channel_diff(a.pixels[i], b.pixels[i]));
  }
  EXPECT_LT(worst, 1e-6f);
}

TEST(BivariateFrameTest, EndToEndRendersAndMatchesSerial) {
  TempDir dir;
  core::ExperimentConfig cfg;
  cfg.num_ranks = 8;
  cfg.dataset = format::supernova_desc(format::FileFormat::kNetcdfRecord, 20);
  cfg.variable = "pressure";  // color variable
  cfg.image_width = cfg.image_height = 40;
  cfg.render.early_termination = 1.0;
  const std::string path = dir.file("vol.nc");
  data::write_supernova_file(cfg.dataset, path, 1530);

  const auto tf = render::BivariateTransferFunction::supernova_bivariate();
  core::ParallelVolumeRenderer renderer(cfg);
  Image out;
  const core::FrameStats stats =
      renderer.execute_frame_bivariate(path, "density", tf, &out);
  EXPECT_GT(stats.render.total_samples, 0);

  // Serial bivariate reference.
  Brick color(Box3i{{0, 0, 0}, cfg.dataset.dims});
  Brick opacity(Box3i{{0, 0, 0}, cfg.dataset.dims});
  const data::SupernovaField field(1530);
  field.fill_brick(data::Variable::kPressure, cfg.dataset.dims, &color);
  field.fill_brick(data::Variable::kDensity, cfg.dataset.dims, &opacity);
  const render::Raycaster rc(cfg.dataset.dims, cfg.render);
  const render::SubImage serial = rc.render_block_bivariate(
      color, opacity, Box3i{{0, 0, 0}, cfg.dataset.dims}, renderer.camera(),
      tf);
  Image reference(cfg.image_width, cfg.image_height);
  if (!serial.rect.empty()) reference.insert(serial.rect, serial.pixels);
  EXPECT_LT(out.max_difference(reference), 2e-3f);
}

TEST(BivariateRenderTest, RowBandsStitchBackToTheExactBlockRender) {
  const Vec3i dims{32, 32, 32};
  Brick color(Box3i{{0, 0, 0}, dims});
  Brick opacity(Box3i{{0, 0, 0}, dims});
  const data::SupernovaField field(1530);
  field.fill_brick(data::Variable::kPressure, dims, &color);
  field.fill_brick(data::Variable::kDensity, dims, &opacity);
  const render::Raycaster caster(dims, render::RenderConfig{});
  const render::Camera camera = render::Camera::default_view(dims, 96, 96);
  const auto tf = render::BivariateTransferFunction::supernova_bivariate();
  const Box3i owned{{8, 8, 8}, {24, 24, 24}};

  const render::SubImage whole =
      caster.render_block_bivariate(color, opacity, owned, camera, tf);
  const std::int64_t rows = whole.rect.height();
  ASSERT_GT(rows, 2);
  const std::int64_t split = rows / 3;
  const render::SubImage top = caster.render_block_bivariate_rows(
      color, opacity, owned, camera, tf, 0, split);
  const render::SubImage bottom = caster.render_block_bivariate_rows(
      color, opacity, owned, camera, tf, split, rows);
  EXPECT_EQ(top.samples + bottom.samples, whole.samples);
  EXPECT_EQ(top.rect.y0, whole.rect.y0);
  EXPECT_EQ(bottom.rect.y1, whole.rect.y1);
  ASSERT_EQ(top.pixels.size() + bottom.pixels.size(), whole.pixels.size());
  std::vector<Rgba> stitched = top.pixels;
  stitched.insert(stitched.end(), bottom.pixels.begin(), bottom.pixels.end());
  for (std::size_t i = 0; i < stitched.size(); ++i) {
    ASSERT_EQ(stitched[i].r, whole.pixels[i].r) << i;
    ASSERT_EQ(stitched[i].g, whole.pixels[i].g) << i;
    ASSERT_EQ(stitched[i].b, whole.pixels[i].b) << i;
    ASSERT_EQ(stitched[i].a, whole.pixels[i].a) << i;
  }
}

core::ExperimentConfig bivariate_config() {
  core::ExperimentConfig cfg;
  cfg.num_ranks = 8;
  cfg.dataset = format::supernova_desc(format::FileFormat::kNetcdfRecord, 32);
  cfg.variable = "pressure";
  cfg.image_width = cfg.image_height = 96;
  return cfg;
}

/// Bitwise equality of the execute-mode stats a bivariate frame reports.
void expect_same_frame(const core::FrameStats& a, const core::FrameStats& b) {
  EXPECT_EQ(a.io_seconds, b.io_seconds);
  EXPECT_EQ(a.io.useful_bytes, b.io.useful_bytes);
  EXPECT_EQ(a.io.physical_bytes, b.io.physical_bytes);
  EXPECT_EQ(a.render_seconds, b.render_seconds);
  EXPECT_EQ(a.render.seconds, b.render.seconds);
  EXPECT_EQ(a.render.total_samples, b.render.total_samples);
  EXPECT_EQ(a.render.max_rank_samples, b.render.max_rank_samples);
  EXPECT_EQ(a.render.straggler_rank, b.render.straggler_rank);
  EXPECT_EQ(a.composite_seconds, b.composite_seconds);
  EXPECT_EQ(a.composite.exchange.seconds, b.composite.exchange.seconds);
  EXPECT_EQ(a.composite.blend_seconds, b.composite.blend_seconds);
  EXPECT_EQ(a.composite.messages, b.composite.messages);
  EXPECT_EQ(a.composite.bytes, b.composite.bytes);
  EXPECT_EQ(a.steal.chunks_stolen, b.steal.chunks_stolen);
  EXPECT_EQ(a.steal.steal_seconds, b.steal.steal_seconds);
}

TEST(BivariateFrameTest, StealingKeepsTheImageAndShrinksTheStraggler) {
  TempDir dir;
  core::ExperimentConfig cfg = bivariate_config();
  const std::string path = dir.file("vol.nc");
  data::write_supernova_file(cfg.dataset, path, 1530);
  const auto tf = render::BivariateTransferFunction::supernova_bivariate();

  core::ParallelVolumeRenderer baseline(cfg);
  Image base_img;
  const core::FrameStats base =
      baseline.execute_frame_bivariate(path, "density", tf, &base_img);

  cfg.steal.policy = steal::StealPolicy::kScanlineChunks;
  cfg.steal.chunks_per_block = 8;
  core::ParallelVolumeRenderer stealing(cfg);
  Image steal_img;
  const core::FrameStats stolen =
      stealing.execute_frame_bivariate(path, "density", tf, &steal_img);

  EXPECT_GT(stolen.steal.chunks_stolen, 0);
  EXPECT_EQ(base_img.max_difference(steal_img), 0.0f);
  EXPECT_EQ(stolen.render.total_samples, base.render.total_samples);
  EXPECT_LE(stolen.render.max_rank_samples, base.render.max_rank_samples);
}

TEST(BivariateFrameTest, BitIdenticalAcrossHostThreads) {
  TempDir dir;
  core::ExperimentConfig cfg = bivariate_config();
  const std::string path = dir.file("vol.nc");
  data::write_supernova_file(cfg.dataset, path, 1530);
  const auto tf = render::BivariateTransferFunction::supernova_bivariate();

  cfg.host_threads = 1;
  core::ParallelVolumeRenderer serial(cfg);
  cfg.host_threads = 4;
  core::ParallelVolumeRenderer threaded(cfg);
  Image a, b;
  const core::FrameStats sa =
      serial.execute_frame_bivariate(path, "density", tf, &a);
  const core::FrameStats sb =
      threaded.execute_frame_bivariate(path, "density", tf, &b);
  EXPECT_EQ(a.max_difference(b), 0.0f);
  expect_same_frame(sa, sb);
}

}  // namespace
}  // namespace pvr
