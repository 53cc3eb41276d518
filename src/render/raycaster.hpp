// Front-to-back ray-casting volume renderer (paper §III-B.2). Each rank
// renders only its own block; samples lie on a *global* ray lattice
// (t = t_enter(volume) + k * dt), and a sample belongs to exactly the block
// whose half-open voxel box contains its position — so compositing the
// per-block subimages in visibility order reproduces the serial rendering
// bit-for-bit up to floating-point blending order.
#pragma once

#include <cstdint>
#include <vector>

#include "par/thread_pool.hpp"
#include "render/camera.hpp"
#include "render/simd/backend.hpp"
#include "render/transfer_function.hpp"
#include "util/brick.hpp"
#include "util/color.hpp"
#include "util/image.hpp"

namespace pvr::render {

/// Which raycasting kernel renders scanline chunks. Both kernels sample the
/// same global lattice and produce bitwise-identical pixels and sample
/// counts (tests pin this); kSimd marches 8-ray packets in lockstep over
/// cache-blocked pixel tiles (src/render/simd/).
enum class RaycastKernel {
  kScalar,  ///< one ray at a time: the reference march the tests compare
            ///< against, and the default on the lane-loop backend
  kSimd,    ///< 8-wide ray packets, tile-blocked traversal, constant-
            ///< macrocell fast path; the default on a vector backend
};

struct RenderConfig {
  /// Sampling step in voxel units along the ray.
  double step_voxels = 1.0;
  /// Terminate a ray once accumulated alpha reaches this value; >= 1
  /// disables early termination (required when comparing parallel and
  /// serial renderings exactly, since a block cannot see upstream opacity).
  double early_termination = 1.0;
  /// Values mapped to [0,1] for the transfer function: (v - lo) / (hi - lo).
  float value_lo = 0.0f;
  float value_hi = 1.0f;
  /// Kernel selection; results are identical, only speed differs. The
  /// default is the packet kernel where the build has a vector backend
  /// (PVR_SIMD=auto or avx2) and the scalar march on the lane-loop fallback
  /// (PVR_SIMD=scalar), where packets are slower than single rays.
  RaycastKernel kernel = simd::kVectorBackend ? RaycastKernel::kSimd
                                              : RaycastKernel::kScalar;
  /// Cache-block tile shape (pixels) for the SIMD kernel's depth-
  /// synchronized traversal; ignored by the scalar kernel.
  int tile_w = 32;
  int tile_h = 8;
};

/// Rows [begin, end) of a block's screen footprint, from its top edge.
struct RowBand {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// A rendered block subimage: packed pixels over a screen rectangle plus the
/// block's visibility depth.
struct SubImage {
  Rect rect;                 ///< screen footprint (possibly empty)
  std::vector<Rgba> pixels;  ///< rect.pixel_count() premultiplied pixels
  double depth = 0.0;        ///< view depth of the block center
  std::int64_t samples = 0;  ///< ray samples taken (render cost metric)
};

class Raycaster {
 public:
  /// `volume_dims` defines the world box and the global sample lattice.
  Raycaster(const Vec3i& volume_dims, RenderConfig config);

  const RenderConfig& config() const { return config_; }
  double step_world() const { return step_world_; }

  /// Renders the given owned region (`owned` voxel box, half-open) from
  /// `brick`, which must cover owned plus a one-voxel ghost layer (clipped
  /// to the volume). Only pixels inside the block's screen footprint are
  /// produced. `pool`, if non-null and multi-threaded, renders scanline
  /// chunks in parallel; pixels and sample counts are bit-identical for any
  /// thread count (rays are independent; per-chunk sample tallies merge in
  /// chunk order — DESIGN.md §8).
  SubImage render_block(const Brick& brick, const Box3i& owned,
                        const Camera& camera, const TransferFunction& tf,
                        par::ThreadPool* pool = nullptr) const;

  /// Renders only rows [row_begin, row_end) of the block's screen footprint
  /// (rows counted from the footprint's top edge). Returns a band SubImage
  /// whose rect is the footprint clipped to that row range. Samples lie on
  /// the global ray lattice and rays are independent, so stitching disjoint
  /// bands back together in row order reproduces render_block's pixels and
  /// total sample count bit-for-bit — the basis of render-stage work
  /// stealing, where thief ranks render bands of a victim's block.
  SubImage render_block_rows(const Brick& brick, const Box3i& owned,
                             const Camera& camera, const TransferFunction& tf,
                             std::int64_t row_begin, std::int64_t row_end,
                             par::ThreadPool* pool = nullptr) const;

  /// Bivariate variant: color sampled from `color_brick`, opacity from
  /// `opacity_brick` (both must cover owned + ghost). Always the scalar
  /// kernel: the SIMD packet kernel's transfer-function LUT is univariate.
  SubImage render_block_bivariate(const Brick& color_brick,
                                  const Brick& opacity_brick,
                                  const Box3i& owned, const Camera& camera,
                                  const BivariateTransferFunction& tf,
                                  par::ThreadPool* pool = nullptr) const;

  /// Bivariate render_block_rows: stitching disjoint bands in row order
  /// reproduces render_block_bivariate bit-for-bit.
  SubImage render_block_bivariate_rows(const Brick& color_brick,
                                       const Brick& opacity_brick,
                                       const Box3i& owned,
                                       const Camera& camera,
                                       const BivariateTransferFunction& tf,
                                       std::int64_t row_begin,
                                       std::int64_t row_end,
                                       par::ThreadPool* pool = nullptr) const;

  /// Serial reference: renders the whole volume from a single brick
  /// covering it, into a full image. `samples`, if non-null, receives the
  /// real per-ray sample tally (equal to the sum of per-block samples of
  /// any decomposition of the same volume — the lattice partitions).
  Image render_full(const Brick& brick, const Camera& camera,
                    const TransferFunction& tf, par::ThreadPool* pool = nullptr,
                    std::int64_t* samples = nullptr) const;

  /// Trilinear sample of the brick at a world position (voxel-center
  /// convention, edge-clamped at volume borders).
  float sample_world(const Brick& brick, const Vec3d& world) const;

 private:
  /// Sets out->rect to the block's footprint (or `band` of it, if non-null)
  /// and out->depth; returns the block's world box.
  Box3d block_shell(const Box3i& owned, const Camera& camera,
                    const RowBand* band, SubImage* out) const;

  SubImage render_bivariate(const Brick& color_brick,
                            const Brick& opacity_brick, const Box3i& owned,
                            const Camera& camera,
                            const BivariateTransferFunction& tf,
                            const RowBand* band, par::ThreadPool* pool) const;

  /// Univariate kernel dispatch over the preset `out->rect`: the SIMD
  /// packet kernel or the scalar march.
  void render_rect(const Brick& brick, const Box3d& region,
                   const Camera& camera, const TransferFunction& tf,
                   par::ThreadPool* pool, SubImage* out) const;

  /// The scalar march shared by every render: fills `out->rect` in scanline
  /// chunks; `classify(world_position)` gives each sample's premultiplied,
  /// step-corrected RGBA (a template parameter, inlined per sample).
  template <class Classify>
  void march_rect(const Box3d& region, const Camera& camera,
                  const Classify& classify, par::ThreadPool* pool,
                  SubImage* out) const;

  /// One ray's front-to-back march over the region's lattice samples.
  /// `region_is_volume` skips the second (redundant) box intersection when
  /// the region is the whole volume box, as in render_full and single-block
  /// runs. Kept out of line: inlined into march_rect's scanline loop, the
  /// per-sample loop spills more registers and the single-threaded scalar
  /// march runs 7-11% slower (128³, 512², 64 blocks, x86-64 -O3).
  template <class Classify>
  [[gnu::noinline]]
  Rgba integrate_ray(const Box3d& region_world, bool region_is_volume,
                     const Ray& ray, const Classify& classify,
                     std::int64_t* samples) const;

  Vec3i dims_;
  RenderConfig config_;
  double step_world_ = 0.0;
  double h_ = 0.0;      ///< voxel size in world units
  double inv_h_ = 0.0;  ///< 1 / h_, hoisted out of the per-sample divide
  /// Hoisted value normalization: v = raw * value_scale_ + value_bias_
  /// (one multiply-add per sample instead of subtract + multiply).
  float value_scale_ = 1.0f;
  float value_bias_ = 0.0f;
};

}  // namespace pvr::render
