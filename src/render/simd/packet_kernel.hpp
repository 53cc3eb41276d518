// Ray-packet raycasting kernel: 8-wide lockstep march over the global
// sample lattice, cache-blocked into pixel tiles. Slots in under
// Raycaster::render_rect as a drop-in replacement for the scalar per-ray
// loop — per-lane arithmetic replays the scalar integrate_ray expression
// by expression, except where a constant macrocell makes the trilinear
// blend's result known exactly, so the produced pixels and sample counts
// are bitwise identical (see DESIGN.md §8.1).
#pragma once

#include <cstdint>
#include <vector>

#include "render/camera.hpp"
#include "render/simd/tf_lut.hpp"
#include "util/brick.hpp"
#include "util/color.hpp"
#include "util/image.hpp"

namespace pvr::render::simd {

/// Constant-macrocell table of one brick: a float per cell of 8x8x8
/// trilinear stencil origins (brick-relative origin i0 falls in cell
/// i0 >> kShift per axis). A cell holds the value v when every voxel its
/// stencils read — the cell plus its +1 apron, clipped to the brick — has
/// the bit pattern of v, and v is finite and not -0.0. Then every trilinear
/// sample in the cell is exactly v: v - v == +0.0, so v + f * (v - v) == v
/// for any fraction f in [0, 1] (without FMA contraction). Any other cell
/// holds NaN.
struct Macrocells {
  static constexpr int kShift = 3;
  Vec3i count;               ///< cells per axis
  std::vector<float> value;  ///< x-fastest, count.x * count.y * count.z
};

/// Builds the table for `brick`. A cell's scan stops at its first mismatch;
/// an all-constant brick reads each voxel ~1.4 times (the aprons overlap).
Macrocells build_macrocells(const Brick& brick);

/// Everything the packet kernel needs, hoisted once per render_rect call.
/// All values mirror the scalar path's per-ray constants exactly.
struct KernelParams {
  const Brick* brick = nullptr;
  const Camera* camera = nullptr;
  const TfLut* lut = nullptr;
  const Macrocells* cells = nullptr;  ///< build_macrocells(*brick)
  Box3d region;   ///< half-open sample-ownership box (world space)
  Box3d vol;      ///< whole-volume world box (lattice origin)
  bool region_is_volume = false;
  double dt = 0.0;           ///< step_world: lattice spacing along the ray
  double inv_h = 0.0;        ///< 1 / voxel size
  float value_scale = 1.0f;  ///< hoisted normalization: v = raw*scale + bias
  float value_bias = 0.0f;
  float early_termination = 1.0f;
  int tile_w = 32;  ///< cache tile width in pixels
  int tile_h = 8;   ///< cache tile height in pixels
};

/// Renders rows [row_begin, row_end) of `rect` (rows counted from rect.y0)
/// into `out`, the packed pixel buffer of the whole rect (row-major, width
/// = rect.width(); pixel (x, row) lives at out[row * width + (x - rect.x0)]).
/// Rows outside the band are not touched. Returns the number of lattice
/// samples taken — exactly the count the scalar path would report.
std::int64_t render_rows(const KernelParams& kp, const Rect& rect,
                         std::int64_t row_begin, std::int64_t row_end,
                         Rgba* out);

}  // namespace pvr::render::simd
