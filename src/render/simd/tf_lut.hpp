// Flattened transfer function for the ray-packet kernel: control points in
// structure-of-arrays form with a masked 8-lane sampler whose per-lane
// results are bitwise-identical to TransferFunction::sample on the same
// inputs.
//
// Exactness contract (the basis of the scalar/SIMD image-identity tests):
//
//   * Segment selection is the scalar linear scan, vectorized: the control
//     values are sorted, so the scan's stopping index equals the count of
//     control values strictly below v — computed with one vector compare
//     per control point instead of a per-lane loop.
//   * Below-front / above-back lanes select the stored endpoint values
//     directly (no lerp), exactly like the scalar early returns.
//   * The lerp, clamp, and premultiply are the same float expressions,
//     evaluated element-wise.
//   * Opacity correction: for the common step_voxels == 1 case the
//     1 - pow(1 - a, 1) round trip collapses to 1 - (1 - a). The LUT uses
//     that identity only after verifying, once per process, that the
//     host's powf(x, 1) == x (IEEE-754 requires it; the check is insurance
//     against a non-conforming libm). Any other step calls the same
//     std::pow per lane.
//
// sample8 lives in the header so the packet kernel inlines it — it runs
// once per lattice step and the call/ABI overhead was measurable.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "render/simd/vec8.hpp"
#include "render/transfer_function.hpp"

namespace pvr::render::simd {

class TfLut {
 public:
  /// Flattens `tf` for sampling at a fixed step (one LUT per render pass).
  TfLut(const TransferFunction& tf, float step_voxels);

  /// Samples 8 normalized values under `mask`: lanes where the mask is set
  /// receive exactly TransferFunction::sample(value, step) split into
  /// premultiplied SoA channels; masked-out lanes receive zeros.
  /// Force-inlined: it runs once per lattice step inside the packet march
  /// and the call/ABI overhead (10 vector outputs) was measurable.
  [[gnu::always_inline]] inline void sample8(const Float8& value,
                                             const Int8& mask, Float8* r,
                                             Float8* g, Float8* b,
                                             Float8* a) const {
    // Dispatch to a compile-time control-point count: the common TFs have
    // a handful of points, and constant trip counts let the segment scans
    // below unroll into straight-line selects over invariant broadcasts.
    switch (int(value_.size()) - 1) {
      case 1: return sample8_impl<1>(value, mask, r, g, b, a);
      case 2: return sample8_impl<2>(value, mask, r, g, b, a);
      case 3: return sample8_impl<3>(value, mask, r, g, b, a);
      case 4: return sample8_impl<4>(value, mask, r, g, b, a);
      case 5: return sample8_impl<5>(value, mask, r, g, b, a);
      case 6: return sample8_impl<6>(value, mask, r, g, b, a);
      case 7: return sample8_impl<7>(value, mask, r, g, b, a);
      default: return sample8_impl<-1>(value, mask, r, g, b, a);
    }
  }

 private:
  /// sample8 for a compile-time point count (LAST == -1: runtime count).
  template <int LAST>
  [[gnu::always_inline]] inline void sample8_impl(const Float8& value,
                                                  const Int8& mask, Float8* r,
                                                  Float8* g, Float8* b,
                                                  Float8* a) const {
    const Float8 zero = Float8::broadcast(0.0f);
    const Float8 one = Float8::broadcast(1.0f);
    const int last = LAST >= 0 ? LAST : int(value_.size()) - 1;

    // std::clamp(value, 0, 1) lane-wise, same comparison order.
    Float8 v = select(value < zero, zero, value);
    v = select(one < v, one, v);

    const Float8 front_v = Float8::broadcast(value_.front());
    const Float8 back_v = Float8::broadcast(value_[std::size_t(last)]);
    // Scalar early returns: v <= front.value and v >= back.value.
    const Int8 below = ~(front_v < v);
    const Int8 above = v >= back_v;

    // The scalar scan `hi = 1; while (value_[hi] < v) ++hi;` over sorted
    // values stops at the last j with value_[j] < v, plus one. Walk the
    // interior points once, advancing each lane's segment endpoints by
    // select wherever that lane passed point j — the last advance wins,
    // exactly the scan's stopping segment. Broadcast+select beats gathering
    // from the tiny control-point tables (a table gather per channel per
    // endpoint was ~40% of kernel time). Lanes outside (front, back) just
    // track the 0-1 segment; their endpoint selects override below.
    //
    // The scan runs once per channel rather than once for all five: each
    // pass keeps only two accumulators live (the j compares are recomputed,
    // one cheap vcmp each), where a fused scan holds ten chains at once and
    // spilled hard — this whole sampler inlines into the packet march,
    // which is already at the register limit.
    Float8 av = front_v, bv = back_v;
    if (last >= 1) {
      bv = Float8::broadcast(value_[1]);
      for (int j = 1; j < last; ++j) {
        const Int8 adv = Float8::broadcast(value_[std::size_t(j)]) < v;
        av = select(adv, Float8::broadcast(value_[std::size_t(j)]), av);
        bv = select(adv, Float8::broadcast(value_[std::size_t(j + 1)]), bv);
      }
    }

    // Piecewise-linear lerp factor, exactly the scalar expressions.
    const Float8 span = bv - av;
    const Float8 t = select(zero < span, (v - av) / span, zero);

    // Per-channel: scan to the segment endpoints, lerp, apply the scalar
    // early-return endpoints (below wins over above), zero masked-out
    // lanes. One channel at a time to keep live ranges short.
    const auto channel = [&](const std::vector<float>& tbl) {
      Float8 ea = Float8::broadcast(tbl.front());
      Float8 eb = zero;
      if (last >= 1) {
        eb = Float8::broadcast(tbl[1]);
        for (int j = 1; j < last; ++j) {
          const Int8 adv = Float8::broadcast(value_[std::size_t(j)]) < v;
          ea = select(adv, Float8::broadcast(tbl[std::size_t(j)]), ea);
          eb = select(adv, Float8::broadcast(tbl[std::size_t(j + 1)]), eb);
        }
      }
      Float8 cx = ea + t * (eb - ea);
      cx = select(below, Float8::broadcast(tbl.front()),
                  select(above, Float8::broadcast(tbl[std::size_t(last)]),
                         cx));
      return select(mask, cx, zero);
    };
    Float8 cr = channel(r_);
    Float8 cg = channel(g_);
    Float8 cb = channel(b_);
    Float8 co = channel(opacity_);

    // Opacity correction + premultiply (finish_sample), element-wise.
    Float8 op = select(co < zero, zero, co);
    op = select(one < op, one, op);
    Float8 alpha;
    if (unit_step_) {
      alpha = one - (one - op);
    } else {
      const Float8 base = one - op;
      for (int i = 0; i < kLanes; ++i) {
        alpha.set_lane(i, 1.0f - std::pow(base.lane(i), step_));
      }
    }
    *r = cr * alpha;
    *g = cg * alpha;
    *b = cb * alpha;
    *a = alpha;
    // A masked-out lane has op == 0, so alpha == 1 - pow(1, step) == 0 and
    // every channel is zero — safe to blend unmasked if a caller wants to.
  }

 public:
  /// One-lane sample through the same tables: sample8's per-lane
  /// expressions written scalar, so the result is bitwise-identical to any
  /// sample8 lane carrying `value` (and to TransferFunction::sample). The
  /// packet kernel's scalar-tail marcher calls this once per sample, so it
  /// lives in the header too.
  Rgba sample1(float value) const {
    const int last = int(value_.size()) - 1;
    float v = value < 0.0f ? 0.0f : value;
    v = 1.0f < v ? 1.0f : v;
    float cr, cg, cb, co;
    if (!(value_.front() < v)) {  // below (wins over above, like sample8)
      cr = r_.front();
      cg = g_.front();
      cb = b_.front();
      co = opacity_.front();
    } else if (v >= value_[std::size_t(last)]) {  // above
      cr = r_[std::size_t(last)];
      cg = g_[std::size_t(last)];
      cb = b_[std::size_t(last)];
      co = opacity_[std::size_t(last)];
    } else {  // front < v < back implies last >= 1: interior segment
      int hi = 1;
      for (int j = 1; j < last; ++j) {
        hi += value_[std::size_t(j)] < v ? 1 : 0;
      }
      const std::size_t h = std::size_t(hi), l = std::size_t(hi - 1);
      const float av = value_[l];
      const float span = value_[h] - av;
      const float t = 0.0f < span ? (v - av) / span : 0.0f;
      cr = r_[l] + t * (r_[h] - r_[l]);
      cg = g_[l] + t * (g_[h] - g_[l]);
      cb = b_[l] + t * (b_[h] - b_[l]);
      co = opacity_[l] + t * (opacity_[h] - opacity_[l]);
    }
    float op = co < 0.0f ? 0.0f : co;
    op = 1.0f < op ? 1.0f : op;
    const float alpha = unit_step_
                            ? 1.0f - (1.0f - op)
                            : 1.0f - std::pow(1.0f - op, step_);
    return Rgba{cr * alpha, cg * alpha, cb * alpha, alpha};
  }

  bool unit_step() const { return unit_step_; }
  float step_voxels() const { return step_; }

 private:
  std::vector<float> value_, r_, g_, b_, opacity_;  // control points, SoA
  float step_ = 1.0f;
  bool unit_step_ = false;
};

}  // namespace pvr::render::simd
