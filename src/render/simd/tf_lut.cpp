#include "render/simd/tf_lut.hpp"

#include <cmath>

#include "util/error.hpp"

namespace pvr::render::simd {

namespace {

/// powf(x, 1) == x is an IEEE-754 special case; verify the host libm
/// honors it before relying on the identity to skip per-sample pow calls.
/// Checked once per process: every render_rect call builds a TfLut.
bool pow_identity_holds() {
  static const bool holds = [] {
    for (int i = 0; i <= 1024; ++i) {
      const float x = float(i) / 1024.0f;
      if (std::pow(x, 1.0f) != x) return false;
    }
    for (const float x : {1e-30f, 1e-7f, 0.3333333f, 0.9999999f, 1.0f}) {
      if (std::pow(x, 1.0f) != x) return false;
    }
    return true;
  }();
  return holds;
}

}  // namespace

TfLut::TfLut(const TransferFunction& tf, float step_voxels)
    : step_(step_voxels) {
  const auto& points = tf.points();
  PVR_REQUIRE(!points.empty(), "transfer function needs control points");
  value_.reserve(points.size());
  r_.reserve(points.size());
  g_.reserve(points.size());
  b_.reserve(points.size());
  opacity_.reserve(points.size());
  for (const auto& p : points) {
    value_.push_back(p.value);
    r_.push_back(p.r);
    g_.push_back(p.g);
    b_.push_back(p.b);
    opacity_.push_back(p.opacity);
  }
  unit_step_ = step_ == 1.0f && pow_identity_holds();
}

}  // namespace pvr::render::simd
