// The packet kernel's vector backend, decided once from the configure-time
// PVR_SIMD choice (CMakeLists.txt defines PVR_SIMD_SCALAR for
// PVR_SIMD=scalar, for every translation unit alike). vec8.hpp picks its
// lane types from this, and RenderConfig's default kernel follows it.
#pragma once

#if !defined(PVR_SIMD_SCALAR) && (defined(__clang__) || defined(__GNUC__))
#define PVR_SIMD_VECTOR_EXT 1
#endif

namespace pvr::render::simd {

/// True when Int8/Float8/Double8 are compiler vector types (PVR_SIMD=auto or
/// avx2); false on the lane-loop fallback, where the packet kernel is
/// slower than the scalar march.
#if defined(PVR_SIMD_VECTOR_EXT)
inline constexpr bool kVectorBackend = true;
#else
inline constexpr bool kVectorBackend = false;
#endif

}  // namespace pvr::render::simd
