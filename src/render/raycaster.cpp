#include "render/raycaster.hpp"

#include <algorithm>
#include <cmath>

#include "render/simd/packet_kernel.hpp"
#include "render/simd/tf_lut.hpp"
#include "util/error.hpp"

namespace pvr::render {

namespace {

/// Sums per-chunk sample tallies in chunk index order (exact — integers).
std::int64_t merge_samples(const std::vector<std::int64_t>& chunk_samples) {
  std::int64_t total = 0;
  for (const std::int64_t s : chunk_samples) total += s;
  return total;
}

}  // namespace

Raycaster::Raycaster(const Vec3i& volume_dims, RenderConfig config)
    : dims_(volume_dims), config_(config) {
  PVR_REQUIRE(dims_.x > 0 && dims_.y > 0 && dims_.z > 0,
              "volume dims must be positive");
  PVR_REQUIRE(config_.step_voxels > 0, "step must be positive");
  PVR_REQUIRE(config_.value_hi > config_.value_lo, "bad value range");
  PVR_REQUIRE(config_.tile_w > 0 && config_.tile_h > 0,
              "cache tile dims must be positive");
  h_ = voxel_size(dims_);
  inv_h_ = 1.0 / h_;
  step_world_ = config_.step_voxels * h_;
  value_scale_ = 1.0f / (config_.value_hi - config_.value_lo);
  value_bias_ = -config_.value_lo * value_scale_;
}

float Raycaster::sample_world(const Brick& brick, const Vec3d& world) const {
  const Box3i& b = brick.box();
  std::int64_t i0[3];
  double frac[3];
  for (int a = 0; a < 3; ++a) {
    const double v = world[a] * inv_h_ - 0.5;  // voxel-center convention
    double fl = std::floor(v);
    std::int64_t i = std::int64_t(fl);
    double f = v - fl;
    // Edge clamp: keep the 2-sample stencil inside the brick.
    const std::int64_t lo = b.lo[a];
    const std::int64_t hi_minus2 = b.hi[a] - 2;
    if (i < lo) {
      i = lo;
      f = 0.0;
    } else if (i > hi_minus2) {
      i = std::max(lo, hi_minus2);
      f = (b.hi[a] - b.lo[a]) > 1 ? 1.0 : 0.0;
    }
    i0[a] = i;
    frac[a] = f;
  }
  const std::int64_t x1 = std::min(i0[0] + 1, b.hi.x - 1);
  const std::int64_t y1 = std::min(i0[1] + 1, b.hi.y - 1);
  const std::int64_t z1 = std::min(i0[2] + 1, b.hi.z - 1);
  const float c000 = brick.at(i0[0], i0[1], i0[2]);
  const float c100 = brick.at(x1, i0[1], i0[2]);
  const float c010 = brick.at(i0[0], y1, i0[2]);
  const float c110 = brick.at(x1, y1, i0[2]);
  const float c001 = brick.at(i0[0], i0[1], z1);
  const float c101 = brick.at(x1, i0[1], z1);
  const float c011 = brick.at(i0[0], y1, z1);
  const float c111 = brick.at(x1, y1, z1);
  const float fx = float(frac[0]), fy = float(frac[1]), fz = float(frac[2]);
  const float c00 = c000 + fx * (c100 - c000);
  const float c10 = c010 + fx * (c110 - c010);
  const float c01 = c001 + fx * (c101 - c001);
  const float c11 = c011 + fx * (c111 - c011);
  const float c0 = c00 + fy * (c10 - c00);
  const float c1 = c01 + fy * (c11 - c01);
  return c0 + fz * (c1 - c0);
}

template <class Classify>
Rgba Raycaster::integrate_ray(const Box3d& region_world, bool region_is_volume,
                              const Ray& ray, const Classify& classify,
                              std::int64_t* samples) const {
  const Box3d vol = world_box(dims_);
  const auto vol_hit = intersect(ray, vol);
  if (!vol_hit) return kTransparent;
  // When the region IS the volume box (serial reference, 1-block runs) the
  // second intersection would recompute vol_hit exactly.
  double reg_enter = vol_hit->t_enter;
  double reg_exit = vol_hit->t_exit;
  if (!region_is_volume) {
    const auto reg_hit = intersect(ray, region_world);
    if (!reg_hit) return kTransparent;
    reg_enter = reg_hit->t_enter;
    reg_exit = reg_hit->t_exit;
  }

  // Global lattice: t_k = t0 + k * dt with t0 the volume entry point, so
  // every block of the same volume samples identical positions.
  const double t0 = vol_hit->t_enter;
  const double dt = step_world_;
  std::int64_t k = std::max<std::int64_t>(
      0, std::int64_t(std::floor((reg_enter - t0) / dt)) - 1);
  const std::int64_t k_end = std::int64_t(std::ceil((reg_exit - t0) / dt)) + 1;

  Rgba acc = kTransparent;
  for (; k <= k_end; ++k) {
    const double t = t0 + double(k) * dt;
    if (t > vol_hit->t_exit) break;
    const Vec3d p = ray.at(t);
    // Half-open membership: exactly one block owns each lattice sample.
    if (p.x < region_world.lo.x || p.x >= region_world.hi.x ||
        p.y < region_world.lo.y || p.y >= region_world.hi.y ||
        p.z < region_world.lo.z || p.z >= region_world.hi.z) {
      continue;
    }
    acc.blend_under(classify(p));
    ++*samples;
    if (acc.a >= float(config_.early_termination)) break;
  }
  return acc;
}

namespace {

/// The brick must cover `owned` plus a one-voxel ghost layer clipped to the
/// volume.
void require_ghost_coverage(const Brick& brick, const Box3i& owned,
                            const Vec3i& dims) {
  const Vec3i g{1, 1, 1};
  const Box3i need{max(owned.lo - g, Vec3i{0, 0, 0}), min(owned.hi + g, dims)};
  PVR_REQUIRE(brick.box().intersect(need) == need,
              "brick does not cover owned box + ghost layer");
}

bool same_box(const Box3d& a, const Box3d& b) {
  return a.lo.x == b.lo.x && a.lo.y == b.lo.y && a.lo.z == b.lo.z &&
         a.hi.x == b.hi.x && a.hi.y == b.hi.y && a.hi.z == b.hi.z;
}

}  // namespace

template <class Classify>
void Raycaster::march_rect(const Box3d& region, const Camera& camera,
                           const Classify& classify, par::ThreadPool* pool,
                           SubImage* out) const {
  out->pixels.assign(std::size_t(out->rect.pixel_count()), kTransparent);
  const bool region_is_volume = same_box(region, world_box(dims_));

  // Scanline chunks: each chunk writes a disjoint row range of out->pixels
  // and tallies its own sample count; rays are independent, so any thread
  // count produces identical pixels, and the chunk-ordered sample merge is
  // exact.
  const std::int64_t rows = out->rect.y1 - out->rect.y0;
  const std::size_t width = std::size_t(out->rect.x1 - out->rect.x0);
  std::vector<std::int64_t> chunk_samples(
      std::size_t(par::plan_chunks(rows).count), 0);
  par::parallel_for(
      pool, rows, /*min_grain=*/1,
      [&](std::int64_t row_begin, std::int64_t row_end, std::int64_t chunk) {
        std::int64_t samples = 0;
        for (std::int64_t row = row_begin; row < row_end; ++row) {
          const int py = out->rect.y0 + int(row);
          std::size_t i = std::size_t(row) * width;
          for (int px = out->rect.x0; px < out->rect.x1; ++px) {
            out->pixels[i++] = integrate_ray(region, region_is_volume,
                                             camera.ray(px, py), classify,
                                             &samples);
          }
        }
        chunk_samples[std::size_t(chunk)] = samples;
      });
  out->samples = merge_samples(chunk_samples);
}

void Raycaster::render_rect(const Brick& brick, const Box3d& region,
                            const Camera& camera, const TransferFunction& tf,
                            par::ThreadPool* pool, SubImage* out) const {
  // Both kernels march the same global lattice with the same per-ray
  // arithmetic, so kScalar and kSimd pixels and sample counts are bitwise
  // identical (simd_test pins this).
  if (config_.kernel == RaycastKernel::kSimd) {
    out->pixels.assign(std::size_t(out->rect.pixel_count()), kTransparent);
    const std::int64_t rows = out->rect.y1 - out->rect.y0;
    std::vector<std::int64_t> chunk_samples(
        std::size_t(par::plan_chunks(rows).count), 0);
    const simd::TfLut lut(tf, float(config_.step_voxels));
    // Built per call, so it can never go stale: a 34^3 brick costs ~45 us
    // when every cell is constant, under 1 us when mismatches end the scans
    // early (x86-64 -O3).
    const simd::Macrocells cells = simd::build_macrocells(brick);
    simd::KernelParams kp;
    kp.brick = &brick;
    kp.camera = &camera;
    kp.lut = &lut;
    kp.cells = &cells;
    kp.region = region;
    kp.vol = world_box(dims_);
    kp.region_is_volume = same_box(region, kp.vol);
    kp.dt = step_world_;
    kp.inv_h = inv_h_;
    kp.value_scale = value_scale_;
    kp.value_bias = value_bias_;
    kp.early_termination = float(config_.early_termination);
    kp.tile_w = config_.tile_w;
    kp.tile_h = config_.tile_h;
    par::parallel_for(
        pool, rows, /*min_grain=*/1,
        [&](std::int64_t row_begin, std::int64_t row_end, std::int64_t chunk) {
          chunk_samples[std::size_t(chunk)] = simd::render_rows(
              kp, out->rect, row_begin, row_end, out->pixels.data());
        });
    out->samples = merge_samples(chunk_samples);
    return;
  }
  const float step = float(config_.step_voxels);
  march_rect(
      region, camera,
      [&](const Vec3d& p) {
        return tf.sample(sample_world(brick, p) * value_scale_ + value_bias_,
                         step);
      },
      pool, out);
}

Box3d Raycaster::block_shell(const Box3i& owned, const Camera& camera,
                             const RowBand* band, SubImage* out) const {
  PVR_REQUIRE(!owned.empty(), "owned box must not be empty");
  const Box3d region = world_box_of(owned, dims_);
  out->rect = camera.footprint(region);
  if (band != nullptr) {
    const Rect full = out->rect;
    const std::int64_t rows = std::max(0, full.height());
    PVR_REQUIRE(band->begin >= 0 && band->begin <= band->end &&
                    band->end <= rows,
                "row band outside the block footprint");
    out->rect = Rect{full.x0, full.y0 + int(band->begin), full.x1,
                     full.y0 + int(band->end)};
  }
  out->depth = camera.depth_of(
      {region.center().x, region.center().y, region.center().z});
  return region;
}

SubImage Raycaster::render_block(const Brick& brick, const Box3i& owned,
                                 const Camera& camera,
                                 const TransferFunction& tf,
                                 par::ThreadPool* pool) const {
  SubImage out;
  const Box3d region = block_shell(owned, camera, nullptr, &out);
  require_ghost_coverage(brick, owned, dims_);
  render_rect(brick, region, camera, tf, pool, &out);
  return out;
}

SubImage Raycaster::render_block_rows(const Brick& brick, const Box3i& owned,
                                      const Camera& camera,
                                      const TransferFunction& tf,
                                      std::int64_t row_begin,
                                      std::int64_t row_end,
                                      par::ThreadPool* pool) const {
  SubImage out;
  const RowBand band{row_begin, row_end};
  const Box3d region = block_shell(owned, camera, &band, &out);
  require_ghost_coverage(brick, owned, dims_);
  render_rect(brick, region, camera, tf, pool, &out);
  return out;
}

SubImage Raycaster::render_bivariate(const Brick& color_brick,
                                     const Brick& opacity_brick,
                                     const Box3i& owned, const Camera& camera,
                                     const BivariateTransferFunction& tf,
                                     const RowBand* band,
                                     par::ThreadPool* pool) const {
  SubImage out;
  const Box3d region = block_shell(owned, camera, band, &out);
  require_ghost_coverage(color_brick, owned, dims_);
  require_ghost_coverage(opacity_brick, owned, dims_);
  const float step = float(config_.step_voxels);
  march_rect(
      region, camera,
      [&](const Vec3d& p) {
        return tf.sample(
            sample_world(color_brick, p) * value_scale_ + value_bias_,
            sample_world(opacity_brick, p) * value_scale_ + value_bias_, step);
      },
      pool, &out);
  return out;
}

SubImage Raycaster::render_block_bivariate(
    const Brick& color_brick, const Brick& opacity_brick, const Box3i& owned,
    const Camera& camera, const BivariateTransferFunction& tf,
    par::ThreadPool* pool) const {
  return render_bivariate(color_brick, opacity_brick, owned, camera, tf,
                          nullptr, pool);
}

SubImage Raycaster::render_block_bivariate_rows(
    const Brick& color_brick, const Brick& opacity_brick, const Box3i& owned,
    const Camera& camera, const BivariateTransferFunction& tf,
    std::int64_t row_begin, std::int64_t row_end,
    par::ThreadPool* pool) const {
  const RowBand band{row_begin, row_end};
  return render_bivariate(color_brick, opacity_brick, owned, camera, tf,
                          &band, pool);
}

Image Raycaster::render_full(const Brick& brick, const Camera& camera,
                             const TransferFunction& tf, par::ThreadPool* pool,
                             std::int64_t* samples) const {
  const Box3i whole{{0, 0, 0}, dims_};
  PVR_REQUIRE(brick.box() == whole, "full render needs the whole volume");
  // Render through render_rect so the serial reference shares the kernel
  // dispatch and reports real sample tallies (the whole-image lattice count,
  // which equals the sum over any block decomposition of the same volume).
  SubImage sub;
  sub.rect = Rect{0, 0, camera.width(), camera.height()};
  render_rect(brick, world_box(dims_), camera, tf, pool, &sub);
  Image img(camera.width(), camera.height());
  std::copy(sub.pixels.begin(), sub.pixels.end(), img.pixels().begin());
  if (samples != nullptr) *samples = sub.samples;
  return img;
}

}  // namespace pvr::render
