// Tests for the SIMD ray-packet kernel (src/render/simd/): bitwise
// scalar-vs-SIMD image and sample-count equality, packet remainder and
// early-exit handling, row-band stitching under kSimd, the vec8 wrapper's
// exactness guarantees, and the hoisted value normalization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "data/synthetic.hpp"
#include "par/thread_pool.hpp"
#include "render/camera.hpp"
#include "render/decomposition.hpp"
#include "render/raycaster.hpp"
#include "render/simd/packet_kernel.hpp"
#include "render/simd/tf_lut.hpp"
#include "render/simd/vec8.hpp"
#include "render/transfer_function.hpp"

namespace pvr::render {
namespace {

RenderConfig base_config(RaycastKernel kernel) {
  RenderConfig cfg;
  cfg.step_voxels = 1.0;
  cfg.early_termination = 1.0;
  cfg.kernel = kernel;
  return cfg;
}

Brick whole_brick(const Vec3i& dims, std::uint64_t seed) {
  Brick whole(Box3i{{0, 0, 0}, dims});
  data::SupernovaField(seed).fill_brick(data::Variable::kDensity, dims,
                                        &whole);
  return whole;
}

void expect_identical(const SubImage& a, const SubImage& b) {
  ASSERT_EQ(a.rect, b.rect);
  ASSERT_EQ(a.pixels.size(), b.pixels.size());
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(std::memcmp(a.pixels.data(), b.pixels.data(),
                        a.pixels.size() * sizeof(Rgba)),
            0);
}

// ---------------- vec8 wrapper ----------------

TEST(Vec8Test, FloorMatchesStdFloorBitwise) {
  const double cases[] = {-2.5,  -2.0, -1.0000001, -0.5, -0.0, 0.0,
                          0.4999, 1.0,  1.5,        2.0,  17.75, 1e9 + 0.5};
  for (double x : cases) {
    simd::Double8 v = simd::Double8::broadcast(x);
    const simd::Double8 f = simd::floor(v);
    for (int i = 0; i < simd::kLanes; ++i) {
      EXPECT_EQ(f.lane(i), std::floor(x)) << "x=" << x;
    }
  }
}

TEST(Vec8Test, SelectPicksExactLaneValues) {
  simd::Int8 m = simd::Int8::broadcast(0);
  simd::Float8 a = simd::Float8::broadcast(1.5f);
  simd::Float8 b = simd::Float8::broadcast(-3.25f);
  for (int i = 0; i < simd::kLanes; i += 2) m.set_lane(i, -1);
  const simd::Float8 r = simd::select(m, a, b);
  for (int i = 0; i < simd::kLanes; ++i) {
    EXPECT_EQ(r.lane(i), i % 2 == 0 ? 1.5f : -3.25f);
  }
  EXPECT_EQ(simd::popcount(m), 4);
  EXPECT_TRUE(simd::any(m));
  EXPECT_FALSE(simd::any(simd::Int8::broadcast(0)));
}

TEST(Vec8Test, ComparisonsProduceFullLaneMasks) {
  simd::Float8 a = simd::Float8::broadcast(1.0f);
  simd::Float8 b = simd::Float8::broadcast(2.0f);
  b.set_lane(3, 0.5f);
  const simd::Int8 lt = a < b;
  for (int i = 0; i < simd::kLanes; ++i) {
    EXPECT_EQ(lt.lane(i), i == 3 ? 0 : -1);
  }
  simd::Long8 x = simd::Long8::broadcast(7);
  simd::Long8 y = simd::Long8::broadcast(7);
  y.set_lane(5, 9);
  const simd::Int8 gt = y > x;
  for (int i = 0; i < simd::kLanes; ++i) {
    EXPECT_EQ(gt.lane(i), i == 5 ? -1 : 0);
  }
  EXPECT_EQ(simd::min(x, y).lane(5), 7);
  EXPECT_EQ(simd::max(x, y).lane(5), 9);
}

// ---------------- transfer-function LUT ----------------

TEST(TfLutTest, MatchesTransferFunctionSampleBitwise) {
  for (const TransferFunction& tf :
       {TransferFunction::supernova(), TransferFunction::grayscale_ramp(0.2f),
        TransferFunction::transparent()}) {
    for (const float step : {1.0f, 0.5f, 2.0f}) {
      const simd::TfLut lut(tf, step);
      for (int i = -64; i <= 1088; ++i) {
        const float v = float(i) / 1024.0f;  // sweeps below 0 and above 1
        const Rgba want = tf.sample(v, step);
        const Rgba got = lut.sample1(v);
        EXPECT_EQ(want.r, got.r) << "v=" << v << " step=" << step;
        EXPECT_EQ(want.g, got.g) << "v=" << v << " step=" << step;
        EXPECT_EQ(want.b, got.b) << "v=" << v << " step=" << step;
        EXPECT_EQ(want.a, got.a) << "v=" << v << " step=" << step;
      }
    }
  }
}

TEST(TfLutTest, MaskedLanesComeBackZero) {
  const simd::TfLut lut(TransferFunction::supernova(), 1.0f);
  simd::Int8 mask = simd::Int8::broadcast(-1);
  mask.set_lane(2, 0);
  mask.set_lane(6, 0);
  simd::Float8 v = simd::Float8::broadcast(0.6f);
  simd::Float8 r, g, b, a;
  lut.sample8(v, mask, &r, &g, &b, &a);
  const Rgba want = TransferFunction::supernova().sample(0.6f, 1.0f);
  for (int i = 0; i < simd::kLanes; ++i) {
    if (i == 2 || i == 6) {
      EXPECT_EQ(r.lane(i), 0.0f);
      EXPECT_EQ(a.lane(i), 0.0f);
    } else {
      EXPECT_EQ(r.lane(i), want.r);
      EXPECT_EQ(a.lane(i), want.a);
    }
  }
}

TEST(TfLutTest, UnitStepUsesPowIdentity) {
  EXPECT_TRUE(simd::TfLut(TransferFunction::supernova(), 1.0f).unit_step());
  EXPECT_FALSE(simd::TfLut(TransferFunction::supernova(), 0.5f).unit_step());
}

// ---------------- hoisted value normalization ----------------

TEST(NormalizationHoistTest, ScaleBiasIsBitwiseExactForZeroLo) {
  // The hoist rewrites (raw - lo) * inv_range as raw * scale + bias. For
  // lo == 0 (every shipped scene) bias is -0.0f and x + -0.0f == x, so the
  // scalar image bytes are pinned unchanged; this sweep is the regression
  // pin at the arithmetic level.
  const float lo = 0.0f, hi = 0.7f;
  const float inv_range = 1.0f / (hi - lo);
  const float scale = 1.0f / (hi - lo);
  const float bias = -lo * scale;
  for (int i = -2048; i <= 2048; ++i) {
    const float raw = float(i) / 512.0f;
    const float before = (raw - lo) * inv_range;
    const float after = raw * scale + bias;
    EXPECT_EQ(before, after) << "raw=" << raw;
  }
}

TEST(NormalizationHoistTest, NonzeroLoStaysWithinOneUlp) {
  const float lo = 0.25f, hi = 1.75f;
  const float inv_range = 1.0f / (hi - lo);
  const float scale = 1.0f / (hi - lo);
  const float bias = -lo * scale;
  for (int i = -2048; i <= 2048; ++i) {
    const float raw = float(i) / 512.0f;
    const float before = (raw - lo) * inv_range;
    const float after = raw * scale + bias;
    EXPECT_NEAR(before, after, 2.0f * std::fabs(before) *
                                   std::numeric_limits<float>::epsilon() +
                                   1e-7f)
        << "raw=" << raw;
  }
}

// ---------------- scalar vs SIMD kernel equality ----------------

class KernelEquality : public ::testing::TestWithParam<int> {};

TEST_P(KernelEquality, WholeVolumeImagesBitwiseEqual) {
  // Width 51 is not divisible by 8, so every scanline ends in a remainder
  // packet; threads 1 and 4 exercise the chunked parallel path.
  const Vec3i dims{24, 24, 24};
  const Brick whole = whole_brick(dims, 11);
  const Camera cam = Camera::default_view(dims, 51, 38);
  const TransferFunction tf = TransferFunction::supernova();
  par::ThreadPool pool(GetParam());

  const Raycaster scalar(dims, base_config(RaycastKernel::kScalar));
  const Raycaster vec(dims, base_config(RaycastKernel::kSimd));
  const SubImage a =
      scalar.render_block(whole, Box3i{{0, 0, 0}, dims}, cam, tf, &pool);
  const SubImage b =
      vec.render_block(whole, Box3i{{0, 0, 0}, dims}, cam, tf, &pool);
  expect_identical(a, b);
  EXPECT_GT(a.samples, 0);
}

TEST_P(KernelEquality, BlockDecompositionImagesBitwiseEqual) {
  // The fig5-style scene: a decomposed volume, per-block renders with ghost
  // bricks. Every block's subimage must match the scalar kernel bitwise.
  const Vec3i dims{24, 24, 24};
  const Camera cam = Camera::default_view(dims, 48, 48);
  const TransferFunction tf = TransferFunction::supernova();
  const Decomposition d(dims, 8);
  par::ThreadPool pool(GetParam());

  const Raycaster scalar(dims, base_config(RaycastKernel::kScalar));
  const Raycaster vec(dims, base_config(RaycastKernel::kSimd));
  for (std::int64_t b = 0; b < d.num_blocks(); ++b) {
    const Box3i owned = d.block_box(b);
    Brick brick(d.ghost_box(b, 1));
    data::SupernovaField(11).fill_brick(data::Variable::kDensity, dims,
                                        &brick);
    const SubImage sa = scalar.render_block(brick, owned, cam, tf, &pool);
    const SubImage sb = vec.render_block(brick, owned, cam, tf, &pool);
    expect_identical(sa, sb);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, KernelEquality, ::testing::Values(1, 4));

TEST(SimdKernelTest, EarlyTerminationSaturatesWholePackets) {
  // A low termination threshold plus an opaque ramp makes whole packets die
  // at the same depth, exercising the all-dead early exit; the sample
  // counts must still match the scalar break-after-sample semantics.
  const Vec3i dims{24, 24, 24};
  const Brick whole = whole_brick(dims, 5);
  const Camera cam = Camera::default_view(dims, 40, 40);
  const TransferFunction tf = TransferFunction::grayscale_ramp(0.9f);
  RenderConfig cfg = base_config(RaycastKernel::kScalar);
  cfg.early_termination = 0.25;
  RenderConfig simd_cfg = cfg;
  simd_cfg.kernel = RaycastKernel::kSimd;

  const Raycaster scalar(dims, cfg);
  const Raycaster vec(dims, simd_cfg);
  const SubImage a =
      scalar.render_block(whole, Box3i{{0, 0, 0}, dims}, cam, tf);
  const SubImage b = vec.render_block(whole, Box3i{{0, 0, 0}, dims}, cam, tf);
  expect_identical(a, b);
  // Early termination must actually have cut samples vs the full march.
  const Raycaster full(dims, base_config(RaycastKernel::kSimd));
  const SubImage c = full.render_block(whole, Box3i{{0, 0, 0}, dims}, cam, tf);
  EXPECT_LT(a.samples, c.samples);
}

TEST(SimdKernelTest, NarrowRectRemainderPackets) {
  // A 5-pixel-wide footprint band: every packet is a remainder packet.
  const Vec3i dims{24, 24, 24};
  const Brick whole = whole_brick(dims, 7);
  const Camera cam = Camera::default_view(dims, 5, 64);
  const TransferFunction tf = TransferFunction::supernova();
  const Raycaster scalar(dims, base_config(RaycastKernel::kScalar));
  const Raycaster vec(dims, base_config(RaycastKernel::kSimd));
  const SubImage a =
      scalar.render_block(whole, Box3i{{0, 0, 0}, dims}, cam, tf);
  const SubImage b = vec.render_block(whole, Box3i{{0, 0, 0}, dims}, cam, tf);
  expect_identical(a, b);
}

TEST(SimdKernelTest, TileShapeDoesNotChangePixels) {
  const Vec3i dims{24, 24, 24};
  const Brick whole = whole_brick(dims, 3);
  const Camera cam = Camera::default_view(dims, 48, 48);
  const TransferFunction tf = TransferFunction::supernova();
  RenderConfig cfg = base_config(RaycastKernel::kSimd);
  const Raycaster base(dims, cfg);
  const SubImage want =
      base.render_block(whole, Box3i{{0, 0, 0}, dims}, cam, tf);
  for (const auto& [tw, th] : {std::pair{1, 1}, {8, 1}, {7, 3}, {64, 64}}) {
    RenderConfig t = cfg;
    t.tile_w = tw;
    t.tile_h = th;
    const Raycaster rc(dims, t);
    const SubImage got =
        rc.render_block(whole, Box3i{{0, 0, 0}, dims}, cam, tf);
    expect_identical(want, got);
  }
}

TEST(SimdKernelTest, RowBandStitchingUnderSimd) {
  // Steal-mode contract: disjoint render_block_rows bands stitched in row
  // order reproduce render_block bit-for-bit — under the SIMD kernel, and
  // against the scalar whole-block render.
  const Vec3i dims{24, 24, 24};
  const Camera cam = Camera::default_view(dims, 64, 64);
  const TransferFunction tf = TransferFunction::supernova();
  const Decomposition d(dims, 8);
  const std::int64_t block = 3;
  const Box3i owned = d.block_box(block);
  Brick brick(d.ghost_box(block, 1));
  data::SupernovaField(13).fill_brick(data::Variable::kDensity, dims, &brick);

  const Raycaster scalar(dims, base_config(RaycastKernel::kScalar));
  const Raycaster vec(dims, base_config(RaycastKernel::kSimd));
  const SubImage whole = vec.render_block(brick, owned, cam, tf);
  expect_identical(scalar.render_block(brick, owned, cam, tf), whole);

  const std::int64_t rows = std::max(0, whole.rect.height());
  const std::int64_t cut1 = rows / 3, cut2 = 2 * rows / 3;
  SubImage stitched;
  stitched.rect = whole.rect;
  stitched.pixels.assign(whole.pixels.size(), kTransparent);
  const std::size_t width = std::size_t(whole.rect.width());
  for (const auto& [r0, r1] :
       {std::pair{std::int64_t{0}, cut1}, {cut1, cut2}, {cut2, rows}}) {
    if (r0 >= r1) continue;
    const SubImage band = vec.render_block_rows(brick, owned, cam, tf, r0, r1);
    std::copy(band.pixels.begin(), band.pixels.end(),
              stitched.pixels.begin() + std::ptrdiff_t(std::size_t(r0) * width));
    stitched.samples += band.samples;
  }
  expect_identical(whole, stitched);
}

// ---------------- constant-macrocell fast path ----------------

// A 40^3 density field with planted regions. Each is a box in global
// voxel coordinates; the decomposed bricks below start at voxel 0 or 19,
// so the boxes straddle both 8^3 cell edges and brick edges (where a
// cell's +1 apron is clipped).
Brick planted_volume(const Vec3i& dims) {
  Brick v = whole_brick(dims, 17);
  const auto plant = [&](const Box3i& box, auto value_at) {
    for (std::int64_t z = box.lo.z; z < box.hi.z; ++z) {
      for (std::int64_t y = box.lo.y; y < box.hi.y; ++y) {
        for (std::int64_t x = box.lo.x; x < box.hi.x; ++x) {
          v.at(x, y, z) = value_at(x, y, z);
        }
      }
    }
  };
  const auto constant = [](float c) {
    return [c](std::int64_t, std::int64_t, std::int64_t) { return c; };
  };
  const float inf = std::numeric_limits<float>::infinity();
  // A constant slab with ends off the cell grid.
  plant(Box3i{{2, 0, 5}, {27, 16, 22}}, constant(0.55f));
  // A constant region with one NaN voxel.
  plant(Box3i{{20, 20, 0}, {38, 40, 22}}, constant(0.8f));
  v.at(27, 27, 10) = std::numeric_limits<float>::quiet_NaN();
  // Infinite constants: inf + f * (inf - inf) is NaN, not inf.
  plant(Box3i{{0, 22, 0}, {18, 40, 22}}, constant(-inf));
  plant(Box3i{{14, 10, 23}, {28, 28, 40}}, constant(inf));
  // A constant slab clipped by the volume's edges.
  plant(Box3i{{0, 29, 23}, {40, 40, 40}}, constant(0.7f));
  // A -0.0 region: trilinear blends of it return +0.0, so it must not
  // count as constant.
  plant(Box3i{{28, 10, 23}, {40, 28, 40}}, constant(-0.0f));
  // +0.0 and -0.0 mixed: equal as floats, different as bits.
  plant(Box3i{{0, 10, 23}, {14, 28, 40}},
        [](std::int64_t x, std::int64_t y, std::int64_t z) {
          return (x + y + z) % 2 == 0 ? 0.0f : -0.0f;
        });
  return v;
}

Brick copy_brick(const Brick& from, const Box3i& box) {
  Brick b(box);
  for (std::int64_t z = box.lo.z; z < box.hi.z; ++z) {
    for (std::int64_t y = box.lo.y; y < box.hi.y; ++y) {
      for (std::int64_t x = box.lo.x; x < box.hi.x; ++x) {
        b.at(x, y, z) = from.at(x, y, z);
      }
    }
  }
  return b;
}

TEST(MacrocellTest, OnlyFiniteBitwiseConstantCellsHoldAValue) {
  const Vec3i dims{40, 40, 40};
  const simd::Macrocells m = simd::build_macrocells(planted_volume(dims));
  ASSERT_EQ(m.count, (Vec3i{5, 5, 5}));
  ASSERT_EQ(m.value.size(), 125u);
  // Cell (cx, cy, cz) reads voxels [8c, 8c + 9) per axis, clipped.
  const auto cell = [&](std::int64_t cx, std::int64_t cy, std::int64_t cz) {
    return m.value[std::size_t((cz * m.count.y + cy) * m.count.x + cx)];
  };
  EXPECT_EQ(cell(1, 0, 1), 0.55f);
  EXPECT_EQ(cell(2, 0, 1), 0.55f);
  EXPECT_TRUE(std::isnan(cell(1, 1, 1)));  // apron voxel y = 16 is outside
  EXPECT_TRUE(std::isnan(cell(1, 0, 2)));  // the slab ends at z = 22
  EXPECT_TRUE(std::isnan(cell(0, 0, 1)));  // ... and starts at x = 2
  EXPECT_EQ(cell(3, 3, 0), 0.8f);
  EXPECT_EQ(cell(3, 4, 1), 0.8f);          // apron clipped at y = 40
  EXPECT_TRUE(std::isnan(cell(3, 3, 1)));  // holds the NaN voxel
  EXPECT_TRUE(std::isnan(cell(0, 3, 0)));  // -inf
  EXPECT_TRUE(std::isnan(cell(2, 2, 3)));  // +inf
  EXPECT_EQ(cell(0, 4, 3), 0.7f);
  EXPECT_EQ(cell(4, 4, 4), 0.7f);          // clipped on every axis
  EXPECT_TRUE(std::isnan(cell(4, 2, 3)));  // all -0.0
  EXPECT_TRUE(std::isnan(cell(0, 2, 3)));  // +0.0 / -0.0 mixed
}

class MacrocellEquality : public ::testing::TestWithParam<int> {};

TEST_P(MacrocellEquality, PlantedCellsMatchTheScalarKernel) {
  // Every block of the planted volume, at two tile shapes: images and
  // per-block sample tallies must equal the scalar march bit for bit.
  const Vec3i dims{40, 40, 40};
  const Brick volume = planted_volume(dims);
  const Camera cam = Camera::default_view(dims, 61, 53);
  const TransferFunction tf = TransferFunction::supernova();
  const Decomposition d(dims, 8);
  par::ThreadPool pool(GetParam());

  const Raycaster scalar(dims, base_config(RaycastKernel::kScalar));
  std::int64_t constant_cells = 0;
  for (const auto& [tw, th] : {std::pair{32, 8}, {7, 3}}) {
    RenderConfig cfg = base_config(RaycastKernel::kSimd);
    cfg.tile_w = tw;
    cfg.tile_h = th;
    const Raycaster vec(dims, cfg);
    for (std::int64_t b = 0; b < d.num_blocks(); ++b) {
      const Box3i owned = d.block_box(b);
      const Brick brick = copy_brick(volume, d.ghost_box(b, 1));
      for (const float v : simd::build_macrocells(brick).value) {
        constant_cells += std::isnan(v) ? 0 : 1;
      }
      SCOPED_TRACE("block " + std::to_string(b) + " tile " +
                   std::to_string(tw) + "x" + std::to_string(th));
      expect_identical(scalar.render_block(brick, owned, cam, tf, &pool),
                       vec.render_block(brick, owned, cam, tf, &pool));
    }
  }
  EXPECT_GT(constant_cells, 0);
}

INSTANTIATE_TEST_SUITE_P(Threads, MacrocellEquality, ::testing::Values(1, 4));

TEST(SimdKernelTest, RenderFullMatchesScalarAndReportsSamples) {
  const Vec3i dims{24, 24, 24};
  const Brick whole = whole_brick(dims, 9);
  const Camera cam = Camera::default_view(dims, 48, 48);
  const TransferFunction tf = TransferFunction::grayscale_ramp(0.2f);
  const Raycaster scalar(dims, base_config(RaycastKernel::kScalar));
  const Raycaster vec(dims, base_config(RaycastKernel::kSimd));
  std::int64_t ns = 0, nv = 0;
  const Image a = scalar.render_full(whole, cam, tf, nullptr, &ns);
  const Image b = vec.render_full(whole, cam, tf, nullptr, &nv);
  EXPECT_EQ(ns, nv);
  EXPECT_GT(ns, 0);
  ASSERT_EQ(a.pixels().size(), b.pixels().size());
  EXPECT_EQ(std::memcmp(a.pixels().data(), b.pixels().data(),
                        a.pixels().size() * sizeof(Rgba)),
            0);
}

}  // namespace
}  // namespace pvr::render
