// Outside-in benchmark of the pvr library: drives four workloads through the
// public API (pvr.hpp) only, times every call on the host clock, reports the
// modeled BG/P clock next to it, and checks every op against a reference.
//
//   pvr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --scratch <dir> [--describe <text>]
//                 [--reference "<shape> <kind>=<hex>"]...
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced pass
// that times each layer from outside (one call per layer's public entry
// point) and attributes modeled time with obs::Tracer + profile::analyze.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Everything above it explains the run (provenance, digests,
// per-shape layer shares). Each --reference is a digest recorded by an
// earlier build for this workload and seed; the warm-up ops and every timed
// op must reproduce it.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cpuid.h>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numbers>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "pvr.hpp"

namespace {

using pvr::core::ExperimentConfig;
using pvr::core::FrameStats;
using pvr::core::ParallelVolumeRenderer;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Times one scope on the host clock into *out_ms (each op has its own).
class ScopedTimer {
 public:
  explicit ScopedTimer(double* out_ms) : out_(out_ms), t0_(Clock::now()) {}
  ~ScopedTimer() { *out_ = ms_between(t0_, Clock::now()); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* out_;
  Clock::time_point t0_;
};

// ---------------------------------------------------------------------------
// Digests: FNV-1a over the bit patterns of the compared values.

class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ c[i]) * 0x100000001b3ull;
    }
  }
  template <typename T>
  Digest& operator<<(const T& v) {
    static_assert(std::is_arithmetic_v<T>);
    bytes(&v, sizeof v);
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void add_exchange(Digest& d, const pvr::net::ExchangeCost& x) {
  d << x.seconds << x.messages << x.local_messages << x.total_bytes
    << x.max_hops << x.congestion_factor << x.link_seconds
    << x.endpoint_seconds << x.latency_seconds << x.skew_seconds
    << x.retry_seconds << x.bottleneck_link << x.bottleneck_node;
}

/// Every modeled number of a frame except the trace summary, which differs
/// between traced and untraced calls by design.
std::uint64_t digest_stats(const FrameStats& s) {
  Digest d;
  d << s.io_seconds << s.render_seconds << s.composite_seconds;
  d << s.io.seconds << s.io.open_seconds << s.io.useful_bytes
    << s.io.physical_bytes << s.io.accesses;
  const auto& sc = s.io.storage_cost;
  d << sc.seconds << sc.accesses << sc.physical_bytes << sc.startup_seconds
    << sc.server_seconds << sc.ion_seconds << sc.cap_seconds
    << sc.client_seconds;
  add_exchange(d, s.io.shuffle_cost);
  d << s.render.total_samples << s.render.max_rank_samples
    << s.render.seconds << s.render.straggler_rank;
  d << s.composite.seconds << s.composite.blend_seconds
    << s.composite.num_compositors << s.composite.messages
    << s.composite.bytes;
  add_exchange(d, s.composite.exchange);
  d << s.async.tasks << s.async.edges << s.async.bsp_seconds
    << s.async.reclaimed_seconds << s.async.lane_wait_seconds;
  d << s.faults.coverage << s.faults.retries;
  return d.value();
}

std::uint64_t digest_image(const pvr::Image& img) {
  Digest d;
  d << img.width() << img.height();
  d.bytes(img.pixels().data(), img.pixels().size_bytes());
  return d.value();
}

std::uint64_t digest_text(const std::string& s) {
  Digest d;
  d.bytes(s.data(), s.size());
  return d.value();
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Deterministic uniform draw in [0, 1) from (seed, stream).
double unit_draw(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + (stream + 1) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return double(z >> 11) * 0x1.0p-53;
}

/// A camera on the default view's orbit (same height and distance around
/// the vertical axis through the volume center), at a seeded angle.
pvr::render::Camera orbit_camera(const pvr::Vec3i& dims, int width,
                                 int height, double angle) {
  const pvr::Box3d wb = pvr::render::world_box(dims);
  const pvr::Vec3d center = {wb.center().x, wb.center().y, wb.center().z};
  const double radius = std::hypot(1.4, 1.7);
  const pvr::Vec3d eye =
      center + pvr::Vec3d{radius * std::cos(angle), 0.9,
                          radius * std::sin(angle)};
  return pvr::render::Camera::look_at(eye, center, {0.0, 1.0, 0.0}, 40.0,
                                      width, height);
}

/// The seed turns the default view by a whole number of quarter turns (the
/// volume is a cube, so these views cost about the same to render and
/// composite) plus a jitter of up to 5 degrees either way.
double seeded_angle(std::uint64_t seed, std::uint64_t shape) {
  const double quarter = std::floor(4.0 * unit_draw(seed, 2 * shape));
  const double jitter = unit_draw(seed, 2 * shape + 1) - 0.5;
  return std::atan2(1.7, 1.4) + quarter * std::numbers::pi / 2.0 +
         jitter * std::numbers::pi / 18.0;
}

/// Puts the config's camera on the orbit at the seeded angle for `shape`.
void place_camera(std::uint64_t seed, std::uint64_t shape,
                  ExperimentConfig* c) {
  c->camera = orbit_camera(c->dataset.dims, c->image_width, c->image_height,
                           seeded_angle(seed, shape));
}

ExperimentConfig paper_config(std::int64_t ranks, std::int64_t grid, int image,
                              pvr::format::FileFormat fmt, int threads) {
  ExperimentConfig cfg;
  cfg.num_ranks = ranks;
  cfg.dataset = pvr::format::supernova_desc(fmt, grid);
  cfg.variable = cfg.dataset.variables.front();
  cfg.image_width = cfg.image_height = image;
  cfg.composite.policy = pvr::compose::CompositorPolicy::kImproved;
  cfg.host_threads = threads;  // set explicitly: PVR_THREADS is never read
  return cfg;
}

/// Nearest-rank percentile of ascending samples (always an observed value).
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto n = std::int64_t(sorted.size());
  const auto rank = std::int64_t(std::ceil(p / 100.0 * double(n)));
  return sorted[std::size_t(std::clamp<std::int64_t>(rank, 1, n) - 1)];
}

// ---------------------------------------------------------------------------
// Per-layer accumulation (traced run): every metric is a mean per traced op.

class Layers {
 public:
  void add(const std::string& name, double v) {
    auto& a = acc_[name];
    a.first += v;
    a.second += 1;
  }
  void set(const std::string& name, double v) { acc_[name] = {v, 1}; }
  double mean(const std::string& name) const {
    const auto it = acc_.find(name);
    return it == acc_.end() || it->second.second == 0
               ? 0.0
               : it->second.first / double(it->second.second);
  }

 private:
  std::map<std::string, std::pair<double, std::int64_t>> acc_;
};

std::string bucket_metric(int b) {
  return std::string("profile.") +
         pvr::profile::to_string(static_cast<pvr::profile::Bucket>(b)) + "_s";
}

void add_profile(const pvr::obs::Tracer& tracer, Layers* layers) {
  const pvr::profile::Profile prof = pvr::profile::analyze(tracer);
  for (int b = 0; b < pvr::profile::kNumBuckets; ++b) {
    layers->add(bucket_metric(b),
                prof.run.seconds(static_cast<pvr::profile::Bucket>(b)));
  }
}

void add_frame_counters(const FrameStats& s, Layers* l) {
  l->add("iolib.accesses", double(s.io.accesses));
  l->add("iolib.physical_bytes", double(s.io.physical_bytes));
  l->add("iolib.useful_bytes", double(s.io.useful_bytes));
  l->add("iolib.density", s.io.data_density());
  l->add("iolib.modeled_s", s.io_seconds);
  l->add("storage.modeled_s", s.io.storage_cost.seconds);
  l->add("storage.server_s", s.io.storage_cost.server_seconds);
  const auto& sh = s.io.shuffle_cost;
  const auto& cx = s.composite.exchange;
  l->add("net.shuffle_messages", double(sh.messages));
  l->add("net.shuffle_bytes", double(sh.total_bytes));
  l->add("net.composite_messages", double(s.composite.messages));
  l->add("net.composite_bytes", double(s.composite.bytes));
  l->add("net.max_hops", double(std::max(sh.max_hops, cx.max_hops)));
  l->add("net.link_s", sh.link_seconds + cx.link_seconds);
  l->add("net.endpoint_s", sh.endpoint_seconds + cx.endpoint_seconds);
  l->add("render.modeled_s", s.render_seconds);
  l->add("compose.compositors", double(s.composite.num_compositors));
  l->add("compose.modeled_s", s.composite_seconds);
}

// ---------------------------------------------------------------------------
// Workloads

/// Reference digests keyed "<shape> <kind>" (kind: stats, image or
/// summary). Set-up records each from the shape's untimed warm-up op;
/// stored references then replace them.
using References = std::map<std::string, std::uint64_t>;

struct OpResult {
  double host_ms = 0.0;
  bool ok = false;
  std::int64_t frames = 0;   ///< frames (or served requests) delivered
  double modeled_s = 0.0;    ///< modeled seconds of the frame (frame ops)
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::vector<std::string> shapes() const = 0;
  virtual int host_threads() const = 0;
  /// Everything before the first timed op: inputs, objects, one untimed
  /// warm-up op per shape whose outputs become the shape's reference.
  virtual void setup() = 0;
  virtual OpResult run(std::size_t shape) = 0;
  /// Outside-in pass over one shape: the frame call, then each layer's
  /// public entry point on its own. Stores the frame call's host ms in
  /// *frame_ms; returns false on a failed check.
  virtual bool trace_layers(std::size_t shape, Layers* layers,
                            double* frame_ms) = 0;
  /// One traced op (tracer attached) for attribution and overhead. Stores
  /// its host ms in *traced_ms; returns false on a failed check.
  virtual bool trace_profile(std::size_t shape, Layers* layers,
                             double* traced_ms) = 0;
  References& references() { return refs_; }
  /// Modeled end-to-end figures: mean frame seconds, latency p50/p99,
  /// served fraction. For frame workloads a frame is a request answered
  /// after its modeled seconds, and every frame is delivered.
  virtual void modeled(const std::vector<double>& frame_seconds,
                       std::map<std::string, double>* out) const {
    std::vector<double> v = frame_seconds;
    std::sort(v.begin(), v.end());
    double sum = 0.0;
    for (const double s : v) sum += s;
    (*out)["modeled_frame_s"] = v.empty() ? 0.0 : sum / double(v.size());
    (*out)["modeled_latency_p50_s"] = percentile(v, 50.0);
    (*out)["modeled_latency_p99_s"] = percentile(v, 99.0);
    (*out)["served_frac"] = 1.0;
  }
  virtual void provenance() const {}

 protected:
  bool matches(const std::string& shape, const char* kind,
               std::uint64_t digest) const {
    return refs_.at(shape + " " + kind) == digest;
  }

  References refs_;
};

/// Model-mode frames at paper scale (paper_frames, insitu_composite).
class ModelWorkload : public Workload {
 public:
  struct Shape {
    std::string name;
    ExperimentConfig config;
  };

  ModelWorkload(std::vector<Shape> shapes, bool insitu, std::uint64_t seed)
      : shapes_(std::move(shapes)), insitu_(insitu) {
    for (std::size_t i = 0; i < shapes_.size(); ++i) {
      place_camera(seed, i, &shapes_[i].config);
    }
  }

  std::vector<std::string> shapes() const override {
    std::vector<std::string> names;
    for (const auto& s : shapes_) names.push_back(s.name);
    return names;
  }
  int host_threads() const override { return shapes_[0].config.host_threads; }

  void setup() override {
    renderers_.clear();
    refs_.clear();
    for (const auto& s : shapes_) {
      renderers_.push_back(std::make_unique<ParallelVolumeRenderer>(s.config));
      refs_[s.name + " stats"] = digest_stats(frame(renderers_.size() - 1));
    }
  }

  OpResult run(std::size_t shape) override {
    OpResult r;
    FrameStats stats;
    {
      ScopedTimer t(&r.host_ms);
      stats = frame(shape);
    }
    r.ok = matches(shapes_[shape].name, "stats", digest_stats(stats));
    r.frames = 1;
    r.modeled_s = stats.total_seconds();
    return r;
  }

  bool trace_layers(std::size_t shape, Layers* l, double* frame_out) override {
    ParallelVolumeRenderer& pr = *renderers_[shape];
    double frame_ms = 0.0, io_ms = 0.0, render_ms = 0.0, compose_ms = 0.0;
    FrameStats stats;
    {
      ScopedTimer t(&frame_ms);
      stats = frame(shape);
    }
    pvr::iolib::ReadResult io;
    if (!insitu_) {
      ScopedTimer t(&io_ms);
      io = pr.model_io();
    }
    pvr::render::RenderEstimate est;
    {
      ScopedTimer t(&render_ms);
      est = pr.model_render();
    }
    pvr::compose::CompositeStats cs;
    {
      ScopedTimer t(&compose_ms);
      cs = compose(shape);
    }
    const std::string& name = shapes_[shape].name;
    *frame_out = frame_ms;
    l->add("core.frame_ms." + name, frame_ms);
    l->add("core.unattributed_ms",
           frame_ms - (io_ms + render_ms + compose_ms));
    l->add("iolib.read_ms", io_ms);
    l->add("render.estimate_ms", render_ms);
    l->add("compose.model_ms", compose_ms);
    add_frame_counters(stats, l);
    if (stats.async.enabled) {
      l->add("runtime.tasks", double(stats.async.tasks));
      l->add("runtime.edges", double(stats.async.edges));
      l->add("runtime.reclaimed_s", stats.async.reclaimed_seconds);
      l->add("runtime.lane_wait_s", stats.async.lane_wait_seconds);
    }
    auto& share = shares_[name];
    share.frame_ms += frame_ms;
    share.layer_ms += io_ms + render_ms + compose_ms;
    share.io_ms += io_ms;
    share.density = stats.io.data_density();
    // The layer calls reprice the frame's stages: their modeled numbers
    // must match the frame's (the I/O read is the frame's I/O stage).
    bool ok = matches(name, "stats", digest_stats(stats)) &&
              est.total_samples == stats.render.total_samples;
    if (!insitu_) ok = ok && io.seconds == stats.io.seconds;
    if (shapes_[shape].config.runtime_mode == pvr::runtime::RuntimeMode::kBsp) {
      ok = ok && cs.seconds == stats.composite.seconds;
    }
    return ok;
  }

  bool trace_profile(std::size_t shape, Layers* l, double* ms) override {
    pvr::obs::Tracer tracer;
    renderers_[shape]->set_tracer(&tracer);
    FrameStats stats;
    {
      ScopedTimer t(ms);
      stats = frame(shape);
    }
    renderers_[shape]->set_tracer(nullptr);
    add_profile(tracer, l);
    return matches(shapes_[shape].name, "stats", digest_stats(stats));
  }

  void provenance() const override {
    for (const auto& [name, s] : shares_) {
      std::printf(
          "layers %s: layer calls / frame call = %.3f, iolib.read share of "
          "frame = %.3f, iolib density %.3f\n",
          name.c_str(), s.frame_ms > 0 ? s.layer_ms / s.frame_ms : 0.0,
          s.frame_ms > 0 ? s.io_ms / s.frame_ms : 0.0, s.density);
    }
  }

 private:
  struct Share {
    double frame_ms = 0.0, layer_ms = 0.0, io_ms = 0.0, density = 0.0;
  };

  FrameStats frame(std::size_t shape) {
    ParallelVolumeRenderer& pr = *renderers_[shape];
    return insitu_ ? pr.model_insitu_frame() : pr.model_frame();
  }

  pvr::compose::CompositeStats compose(std::size_t shape) {
    ParallelVolumeRenderer& pr = *renderers_[shape];
    const auto& cfg = shapes_[shape].config;
    switch (cfg.composite.algorithm) {
      case pvr::compose::CompositeAlgorithm::kBinarySwap:
        return pr.model_binary_swap();
      case pvr::compose::CompositeAlgorithm::kRadixK:
        return pr.model_radix_k(cfg.composite.radix);
      case pvr::compose::CompositeAlgorithm::kDirectSend:
        break;
    }
    return pr.model_composite(cfg.composite.policy);
  }

  std::vector<Shape> shapes_;
  bool insitu_;
  std::vector<std::unique_ptr<ParallelVolumeRenderer>> renderers_;
  std::map<std::string, Share> shares_;
};

std::unique_ptr<Workload> paper_frames(std::uint64_t seed) {
  using pvr::format::FileFormat;
  std::vector<ModelWorkload::Shape> shapes = {
      {"nc1120_8k", paper_config(8192, 1120, 1600, FileFormat::kNetcdfRecord, 1)},
      {"raw2240_16k", paper_config(16384, 2240, 2048, FileFormat::kRaw, 1)},
      {"raw4480_32k", paper_config(32768, 4480, 4096, FileFormat::kRaw, 1)},
  };
  return std::make_unique<ModelWorkload>(std::move(shapes), false, seed);
}

std::unique_ptr<Workload> insitu_composite(std::uint64_t seed) {
  using pvr::compose::CompositeAlgorithm;
  using pvr::compose::CompositorPolicy;
  const ExperimentConfig base =
      paper_config(32768, 4480, 4096, pvr::format::FileFormat::kRaw, 1);
  std::vector<ModelWorkload::Shape> shapes(5, {"", base});
  shapes[0].name = "ds_original";
  shapes[0].config.composite.policy = CompositorPolicy::kOriginal;
  shapes[1].name = "ds_improved";
  shapes[2].name = "ds_async";
  shapes[2].config.runtime_mode = pvr::runtime::RuntimeMode::kAsync;
  shapes[2].config.dependency = pvr::runtime::DependencyMode::kFree;
  shapes[3].name = "bswap";
  shapes[3].config.composite.algorithm = CompositeAlgorithm::kBinarySwap;
  shapes[4].name = "radixk8";
  shapes[4].config.composite.algorithm = CompositeAlgorithm::kRadixK;
  shapes[4].config.composite.radix = 8;
  return std::make_unique<ModelWorkload>(std::move(shapes), true, seed);
}

/// Execute mode on a real file: one renderer per seeded camera angle.
class ExecuteWorkload : public Workload {
 public:
  static constexpr int kAngles = 3;
  static constexpr std::int64_t kGrid = 128;

  ExecuteWorkload(std::uint64_t seed, std::string path)
      : seed_(seed), path_(std::move(path)) {}
  ~ExecuteWorkload() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  ExecuteWorkload(const ExecuteWorkload&) = delete;
  ExecuteWorkload& operator=(const ExecuteWorkload&) = delete;

  std::vector<std::string> shapes() const override {
    std::vector<std::string> names;
    for (int i = 0; i < kAngles; ++i) {
      names.push_back("exec128_view" + std::to_string(i));
    }
    return names;
  }
  int host_threads() const override { return 2; }

  void setup() override {
    const ExperimentConfig base =
        paper_config(64, kGrid, 512, pvr::format::FileFormat::kRaw, 2);
    {
      ScopedTimer t(&write_ms_);
      pvr::data::write_supernova_file(base.dataset, path_);
    }
    renderers_.clear();
    refs_.clear();
    const auto names = shapes();
    for (int i = 0; i < kAngles; ++i) {
      ExperimentConfig c = base;
      place_camera(seed_, std::uint64_t(i), &c);
      renderers_.push_back(std::make_unique<ParallelVolumeRenderer>(c));
      pvr::Image img;
      const FrameStats s = renderers_.back()->execute_frame(path_, &img);
      refs_[names[std::size_t(i)] + " stats"] = digest_stats(s);
      refs_[names[std::size_t(i)] + " image"] = digest_image(img);
    }
    working_set_ = std::int64_t(base.image_width) * base.image_height *
                   std::int64_t(sizeof(pvr::Rgba));
    for (const auto& b : renderers_[0]->io_blocks()) {
      working_set_ += b.box.volume() * std::int64_t(sizeof(float));
    }
  }

  OpResult run(std::size_t shape) override {
    OpResult r;
    pvr::Image img;
    FrameStats stats;
    {
      ScopedTimer t(&r.host_ms);
      stats = renderers_[shape]->execute_frame(path_, &img);
    }
    r.ok = check(shape, stats, img);
    r.frames = 1;
    r.modeled_s = stats.total_seconds();
    return r;
  }

  bool trace_layers(std::size_t shape, Layers* l, double* frame_out) override {
    ParallelVolumeRenderer& pr = *renderers_[shape];
    const ExperimentConfig& cfg = pr.config();
    double frame_ms = 0.0, read_ms = 0.0, raycast_ms = 0.0, blend_ms = 0.0;
    pvr::Image frame_img;
    FrameStats stats;
    {
      ScopedTimer t(&frame_ms);
      stats = pr.execute_frame(path_, &frame_img);
    }
    // Rebuild the same frame from the layers below core: collective read
    // of the real file, per-block raycast, direct-send blend.
    pvr::runtime::Runtime rt(pr.partition(), pvr::runtime::Mode::kExecute);
    rt.set_pool(pr.pool());
    const pvr::storage::StorageModel sm(pr.partition(), cfg.storage);
    const auto blocks = pr.io_blocks();
    std::vector<pvr::Brick> bricks;
    bricks.reserve(blocks.size());
    for (const auto& b : blocks) bricks.emplace_back(b.box);
    pvr::iolib::ReadResult io;
    {
      ScopedTimer t(&read_ms);
      pvr::format::DiskFile file(path_, pvr::format::DiskFile::OpenMode::kRead);
      pvr::iolib::CollectiveReader reader(rt, sm, cfg.hints);
      io = reader.read(pr.layout(), cfg.dataset.variable_index(cfg.variable),
                       blocks, &file, bricks);
    }
    const auto infos = pr.screen_blocks();
    std::vector<pvr::render::SubImage> subs;
    subs.reserve(infos.size());
    std::int64_t samples = 0;
    {
      ScopedTimer t(&raycast_ms);
      const pvr::render::Raycaster caster(cfg.dataset.dims, cfg.render);
      const auto tf = pvr::render::TransferFunction::supernova();
      for (std::size_t b = 0; b < bricks.size(); ++b) {
        subs.push_back(caster.render_block(
            bricks[b], pr.decomposition().block_box(std::int64_t(b)),
            pr.camera(), tf, pr.pool()));
        samples += subs.back().samples;
      }
    }
    pvr::Image img;
    {
      ScopedTimer t(&blend_ms);
      pvr::compose::DirectSendCompositor comp(rt, cfg.composite);
      comp.execute(infos, subs, cfg.image_width, cfg.image_height, &img);
    }
    const std::string name = shapes()[shape];
    *frame_out = frame_ms;
    l->add("core.frame_ms." + name, frame_ms);
    l->add("core.unattributed_ms",
           frame_ms - (read_ms + raycast_ms + blend_ms));
    l->add("iolib.exec_read_ms", read_ms);
    l->add("render.raycast_ms", raycast_ms);
    l->add("render.samples", double(samples));
    l->add("render.samples_per_s", double(samples) / (raycast_ms * 1e-3));
    l->add("compose.blend_ms", blend_ms);
    add_frame_counters(stats, l);
    frame_ms_ += frame_ms;
    layer_ms_ += read_ms + raycast_ms + blend_ms;
    raycast_total_ms_ += raycast_ms;
    const bool same_image =
        img.width() == frame_img.width() &&
        img.height() == frame_img.height() &&
        std::memcmp(img.pixels().data(), frame_img.pixels().data(),
                    img.pixels().size_bytes()) == 0;
    rebuild_equal_ = rebuild_equal_ && same_image;
    return same_image && check(shape, stats, frame_img) &&
           samples == stats.render.total_samples &&
           io.useful_bytes == stats.io.useful_bytes;
  }

  bool trace_profile(std::size_t shape, Layers* l, double* ms) override {
    pvr::obs::Tracer tracer;
    ParallelVolumeRenderer& pr = *renderers_[shape];
    pr.set_tracer(&tracer);
    pvr::Image img;
    FrameStats stats;
    {
      ScopedTimer t(ms);
      stats = pr.execute_frame(path_, &img);
    }
    pr.set_tracer(nullptr);
    add_profile(tracer, l);
    l->set("data.write_ms", write_ms_);
    return check(shape, stats, img);
  }

  void provenance() const override {
    std::printf("execute kernel: %s, simd backend: %s\n",
                renderers_[0]->config().render.kernel ==
                        pvr::render::RaycastKernel::kSimd
                    ? "simd"
                    : "scalar",
                pvr::render::simd::backend_name());
    std::printf("execute data.write_ms (last setup): %.3f\n", write_ms_);
    if (frame_ms_ > 0) {
      std::printf(
          "layers execute: layer calls / frame call = %.3f, raycast share of "
          "frame = %.3f, rebuild image bitwise equal: %s\n",
          layer_ms_ / frame_ms_, raycast_total_ms_ / frame_ms_,
          rebuild_equal_ ? "yes" : "NO");
    }
    std::printf(
        "execute working set: %lld bytes (ghosted bricks + image) against "
        "llc_bytes %ld\n",
        static_cast<long long>(working_set_), sysconf(_SC_LEVEL3_CACHE_SIZE));
  }

 private:
  bool check(std::size_t shape, const FrameStats& stats,
             const pvr::Image& img) const {
    const std::string name = shapes()[shape];
    return matches(name, "stats", digest_stats(stats)) &&
           matches(name, "image", digest_image(img));
  }

  std::uint64_t seed_;
  std::string path_;
  double write_ms_ = 0.0;
  std::vector<std::unique_ptr<ParallelVolumeRenderer>> renderers_;
  double frame_ms_ = 0.0, layer_ms_ = 0.0, raycast_total_ms_ = 0.0;
  std::int64_t working_set_ = 0;
  bool rebuild_equal_ = true;
};

/// The render service under a seeded open-loop trace with a mid-run dead
/// storage server and its repair.
class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(std::uint64_t seed) : seed_(seed) {}

  std::vector<std::string> shapes() const override { return {"serve16"}; }
  int host_threads() const override { return 1; }

  void setup() override {
    using pvr::serve::ServiceConfig;
    ServiceConfig cfg;
    cfg.datasets.push_back(
        {"supernova-a", paper_config(64, 1120, 1024,
                                     pvr::format::FileFormat::kRaw, 1)});
    cfg.datasets.push_back(
        {"supernova-b", paper_config(128, 1120, 1024,
                                     pvr::format::FileFormat::kRaw, 1)});
    std::int64_t bytes = 0;
    double warm = 0.0, cold = 0.0;
    {
      pvr::serve::RenderService probe(cfg);
      for (std::int64_t d = 0; d < 2; ++d) {
        for (const auto& block : probe.renderer(d).io_blocks()) {
          bytes += block.box.volume() *
                   cfg.datasets[std::size_t(d)].config.dataset.element_bytes;
        }
        warm = std::max(warm, probe.warm_sweep_seconds(d));
        cold = std::max(cold, probe.cold_sweep_seconds(d));
      }
    }
    // Smaller than both datasets' bricks together: evictions happen.
    cfg.cache_capacity_bytes = bytes * 3 / 4;
    cfg.admission.rate_per_second = 1.5 / warm;
    cfg.admission.burst = 16.0;
    cfg.overload.high_watermark_seconds = 4.0 * warm;
    cfg.overload.stale_watermark_seconds = 8.0 * warm;
    cfg.overload.shed_watermark_seconds = 16.0 * warm;
    cfg.overload.low_watermark_seconds = 2.0 * warm;
    cfg.aging_interval_seconds = 4.0 * warm;
    service_ = std::make_unique<pvr::serve::RenderService>(cfg);

    pvr::serve::WorkloadSpec spec;
    spec.seed = seed_;
    spec.num_sessions = 16;
    spec.num_datasets = 2;
    spec.requests_per_session = 192;
    spec.request_rate = 0.75 / (16.0 * warm);
    spec.slo_seconds = 10.0 * warm;
    spec.camera_buckets = 8;
    spec.orbit_step = 2.0 * std::numbers::pi / 16.0;  // half a bucket
    trace_ = pvr::serve::Workload::generate(spec);
    const double span = trace_.requests.back().arrival;
    pvr::serve::ServiceFault kill;
    kill.time = span * (0.2 + 0.3 * unit_draw(seed_, 101));
    kill.plan.fail_server(0);
    pvr::serve::ServiceFault repair;
    repair.time = kill.time + 0.2 * span;
    faults_ = {kill, repair};
    warm_s_ = warm;
    cold_s_ = cold;

    const pvr::serve::ServeReport rep = service_->run(trace_, faults_);
    refs_.clear();
    refs_["serve16 summary"] = digest_text(rep.summary());
    report_ = rep;
  }

  OpResult run(std::size_t) override {
    OpResult r;
    pvr::serve::ServeReport rep;
    {
      ScopedTimer t(&r.host_ms);
      rep = service_->run(trace_, faults_);
    }
    r.ok = check(rep);
    r.frames = rep.stats.served();
    return r;
  }

  bool trace_layers(std::size_t, Layers* l, double* frame_out) override {
    double ms = 0.0;
    pvr::serve::ServeReport rep;
    {
      ScopedTimer t(&ms);
      rep = service_->run(trace_, faults_);
    }
    const auto& s = rep.stats;
    *frame_out = ms;
    l->add("serve.run_ms", ms);
    l->add("serve.sweeps", double(s.sweeps));
    l->add("serve.coalesced", double(s.coalesced));
    l->add("serve.degraded_sweeps", double(s.degraded_sweeps));
    l->add("serve.rejected_admission", double(s.rejected_admission));
    l->add("serve.rejected_backpressure", double(s.rejected_backpressure));
    l->add("serve.deadline_violations", double(s.deadline_violations));
    l->add("serve.busy_s", s.busy_seconds);
    l->add("serve.max_backlog_s", s.max_backlog_seconds);
    l->add("serve.level_transitions", double(rep.transitions.size()));
    l->add("cache.hit_rate", rep.cache.hit_rate());
    l->add("cache.evictions", double(rep.cache.evictions));
    l->add("cache.bypasses", double(rep.cache.bypasses));
    l->add("cache.miss_bytes", double(rep.cache.miss_bytes));
    l->add("fault.fetch_retries", double(s.fetch_retries));
    l->add("fault.backoff_s", s.backoff_seconds);
    l->add("fault.failover_extents", double(rep.faults.failover_extents));
    return check(rep);
  }

  bool trace_profile(std::size_t, Layers* l, double* ms) override {
    pvr::obs::Tracer tracer;
    service_->set_tracer(&tracer);
    pvr::serve::ServeReport rep;
    {
      ScopedTimer t(ms);
      rep = service_->run(trace_, faults_);
    }
    service_->set_tracer(nullptr);
    add_profile(tracer, l);
    return check(rep);
  }

  void modeled(const std::vector<double>&,
               std::map<std::string, double>* out) const override {
    const auto& s = report_.stats;
    (*out)["modeled_frame_s"] =
        s.sweeps > 0 ? s.busy_seconds / double(s.sweeps) : 0.0;
    (*out)["modeled_latency_p50_s"] = percentile(report_.latencies, 50.0);
    (*out)["modeled_latency_p99_s"] = percentile(report_.latencies, 99.0);
    (*out)["served_frac"] =
        s.submitted > 0 ? double(s.served()) / double(s.submitted) : 0.0;
  }

  void provenance() const override {
    const auto& s = report_.stats;
    std::printf(
        "serve trace: %lld requests, %lld served, %lld rejected, %lld sweeps, "
        "warm sweep %.6f s, cold sweep %.6f s, fault at %.6f s, repair at "
        "%.6f s, retries %lld, cache hit rate %.4f, evictions %lld\n",
        static_cast<long long>(s.submitted),
        static_cast<long long>(s.served()),
        static_cast<long long>(s.rejected()),
        static_cast<long long>(s.sweeps), warm_s_, cold_s_, faults_[0].time,
        faults_[1].time, static_cast<long long>(s.fetch_retries),
        report_.cache.hit_rate(),
        static_cast<long long>(report_.cache.evictions));
  }

 private:
  /// No request is dropped silently, and the summary is the reference.
  bool check(const pvr::serve::ServeReport& rep) const {
    return rep.stats.accounted() == rep.stats.submitted &&
           matches("serve16", "summary", digest_text(rep.summary()));
  }

  std::uint64_t seed_;
  std::unique_ptr<pvr::serve::RenderService> service_;
  pvr::serve::Workload trace_;
  std::vector<pvr::serve::ServiceFault> faults_;
  pvr::serve::ServeReport report_;
  double warm_s_ = 0.0, cold_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// Metric tables

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"frames_per_s", "1/s"},
    {"op_ms_p50", "ms"},
    {"op_ms_tail", "ms"},
    {"modeled_frame_s", "s"},
    {"modeled_latency_p50_s", "s"},
    {"modeled_latency_p99_s", "s"},
    {"served_frac", "fraction"},
    {"peak_rss_mb", "MB"},
};

std::vector<MetricDef> per_layer_defs() {
  std::vector<MetricDef> d;
  for (const char* shape :
       {"nc1120_8k", "raw2240_16k", "raw4480_32k", "ds_original",
        "ds_improved", "ds_async", "bswap", "radixk8", "exec128_view0",
        "exec128_view1", "exec128_view2"}) {
    d.push_back({std::string("core.frame_ms.") + shape, "ms"});
  }
  const std::vector<MetricDef> rest = {
      {"core.unattributed_ms", "ms"},
      {"iolib.read_ms", "ms"},
      {"iolib.exec_read_ms", "ms"},
      {"iolib.accesses", "count"},
      {"iolib.physical_bytes", "B"},
      {"iolib.useful_bytes", "B"},
      {"iolib.density", "ratio"},
      {"iolib.modeled_s", "s"},
      {"storage.modeled_s", "s"},
      {"storage.server_s", "s"},
      {"net.shuffle_messages", "count"},
      {"net.shuffle_bytes", "B"},
      {"net.composite_messages", "count"},
      {"net.composite_bytes", "B"},
      {"net.max_hops", "count"},
      {"net.link_s", "s"},
      {"net.endpoint_s", "s"},
      {"render.estimate_ms", "ms"},
      {"render.raycast_ms", "ms"},
      {"render.samples", "count"},
      {"render.samples_per_s", "1/s"},
      {"render.modeled_s", "s"},
      {"compose.model_ms", "ms"},
      {"compose.blend_ms", "ms"},
      {"compose.compositors", "count"},
      {"compose.modeled_s", "s"},
      {"runtime.tasks", "count"},
      {"runtime.edges", "count"},
      {"runtime.reclaimed_s", "s"},
      {"runtime.lane_wait_s", "s"},
      {"serve.run_ms", "ms"},
      {"serve.sweeps", "count"},
      {"serve.coalesced", "count"},
      {"serve.degraded_sweeps", "count"},
      {"serve.rejected_admission", "count"},
      {"serve.rejected_backpressure", "count"},
      {"serve.deadline_violations", "count"},
      {"serve.busy_s", "s"},
      {"serve.max_backlog_s", "s"},
      {"serve.level_transitions", "count"},
      {"cache.hit_rate", "ratio"},
      {"cache.evictions", "count"},
      {"cache.bypasses", "count"},
      {"cache.miss_bytes", "B"},
      {"fault.fetch_retries", "count"},
      {"fault.backoff_s", "s"},
      {"fault.failover_extents", "count"},
      {"data.write_ms", "ms"},
  };
  d.insert(d.end(), rest.begin(), rest.end());
  for (int b = 0; b < pvr::profile::kNumBuckets; ++b) {
    d.push_back({bucket_metric(b), "s"});
  }
  d.push_back({"obs.trace_overhead", "ratio"});
  return d;
}

// ---------------------------------------------------------------------------
// Provenance

std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s = brand;
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string scratch = ".";
  std::string describe = "unknown";
  std::vector<std::pair<std::string, std::uint64_t>> references;
};

Args parse(int argc, char** argv) {
  if (argc % 2 != 1) throw std::invalid_argument("arguments come in pairs");
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v);
    else if (k == "--scratch") a.scratch = v;
    else if (k == "--describe") a.describe = v;
    else if (k == "--reference") {
      const std::size_t eq = v.rfind('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("--reference takes <key>=<hex>");
      }
      a.references.emplace_back(v.substr(0, eq),
                                std::stoull(v.substr(eq + 1), nullptr, 16));
    } else throw std::invalid_argument("unknown argument " + k);
  }
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "paper_frames") return paper_frames(a.seed);
  if (a.workload == "insitu_composite") return insitu_composite(a.seed);
  if (a.workload == "execute_render") {
    return std::make_unique<ExecuteWorkload>(
        a.seed, a.scratch + "/supernova128_" + std::to_string(getpid()) +
                    ".raw");
  }
  if (a.workload == "serve_faulted") {
    return std::make_unique<ServeWorkload>(a.seed);
  }
  throw std::invalid_argument("unknown workload " + a.workload);
}

constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 25;

int run(const Args& a) {
  // Set-up, repeated at least kMinSetups times and until a second of it has
  // been timed (cheap set-ups are noisy); the median is reported and the
  // last one is measured.
  std::vector<double> setup_ms;
  double setup_total_ms = 0.0;
  std::unique_ptr<Workload> w;
  while (setup_ms.size() < kMaxSetups &&
         (setup_ms.size() < kMinSetups || setup_total_ms < 1000.0)) {
    w.reset();
    double ms = 0.0;
    {
      ScopedTimer t(&ms);
      w = make_workload(a);
      w->setup();
    }
    setup_ms.push_back(ms);
    setup_total_ms += ms;
  }
  std::sort(setup_ms.begin(), setup_ms.end());
  const double setup_s = setup_ms[setup_ms.size() / 2] * 1e-3;

  const std::vector<std::string> shapes = w->shapes();
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace);
  std::printf(
      "provenance: describe %s, nproc %ld, cpu \"%s\", host_threads %d, "
      "llc_bytes %ld, simd backend %s, setups %zu\n",
      a.describe.c_str(), sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str(),
      w->host_threads(), sysconf(_SC_LEVEL3_CACHE_SIZE),
      pvr::render::simd::backend_name(), setup_ms.size());
  References& refs = w->references();
  for (const auto& [key, value] : refs) {
    std::printf("digest %s %s\n", key.c_str(), hex(value).c_str());
  }

  // The last set-up's warm-up ops (one per shape) are checked against the
  // stored references, which then replace the warm-up digests for every
  // timed op. A seed without stored references checks the timed ops
  // against its own warm-up ops.
  std::set<std::string> mismatched_shapes;
  for (const auto& [key, value] : a.references) {
    const auto it = refs.find(key);
    if (it == refs.end()) {
      throw std::invalid_argument("stored reference for unknown digest " + key);
    }
    if (it->second != value) {
      mismatched_shapes.insert(key.substr(0, key.find(' ')));
      std::printf("warm-up mismatch: %s is %s, stored %s\n", key.c_str(),
                  hex(it->second).c_str(), hex(value).c_str());
    }
    it->second = value;
  }
  if (a.references.empty()) {
    std::printf("reference: none stored for seed %llu; ops are checked "
                "against this run's warm-up ops\n",
                static_cast<unsigned long long>(a.seed));
  } else {
    std::printf("reference: %zu stored digests for seed %llu; warm-up ops "
                "mismatching them: %zu of %zu\n",
                a.references.size(), static_cast<unsigned long long>(a.seed),
                mismatched_shapes.size(), shapes.size());
  }
  std::int64_t attempted = std::int64_t(shapes.size());
  std::int64_t failed = std::int64_t(mismatched_shapes.size());
  std::map<std::string, double> values;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(a.seconds));

  if (a.trace == 0) {
    std::vector<std::vector<double>> op_ms(shapes.size());
    std::vector<double> modeled_s;
    double total_ms = 0.0;
    std::int64_t frames = 0;
    // Whole rounds only, so every shape contributes equally.
    do {
      for (std::size_t s = 0; s < shapes.size(); ++s) {
        const OpResult r = w->run(s);
        ++attempted;
        if (!r.ok) ++failed;
        op_ms[s].push_back(r.host_ms);
        modeled_s.push_back(r.modeled_s);
        total_ms += r.host_ms;
        frames += r.frames;
      }
    } while (Clock::now() < deadline);
    // op_ms_p50 is the mean of the shapes' median op times. For the tail,
    // each op is divided by its shape's median and the ratios of all n
    // timed ops are pooled, so a mix of cheap and costly shapes still has
    // n samples: the tail is the highest percentile of the pooled ratios
    // with at least ten ops beyond it (never below the median when n < 20),
    // times op_ms_p50.
    double p50 = 0.0;
    std::vector<double> ratios;
    for (auto& v : op_ms) {
      std::sort(v.begin(), v.end());
      const double median = percentile(v, 50.0);
      p50 += median / double(shapes.size());
      for (const double ms : v) ratios.push_back(ms / median);
    }
    std::sort(ratios.begin(), ratios.end());
    const std::size_t n = ratios.size();
    const double tail_pct =
        std::max(50.0, 100.0 * (double(n) - 10.0) / double(n));
    const double tail_ratio = percentile(ratios, tail_pct);
    const double tail = tail_ratio * p50;
    w->modeled(modeled_s, &values);
    values["setup_s"] = setup_s;
    values["frames_per_s"] = double(frames) / (total_ms * 1e-3);
    values["op_ms_p50"] = p50;
    values["op_ms_tail"] = tail;
    values["peak_rss_mb"] = peak_rss_mb();
    std::printf(
        "op_ms_tail is p%.2f of %zu pooled timed ops (%zu per shape, %zu "
        "shapes; op / its shape's median = %.4f at that percentile) times "
        "op_ms_p50%s\n",
        tail_pct, n, n / shapes.size(), shapes.size(), tail_ratio,
        n < 20 ? "; fewer than 20 ops, so it falls back to the median" : "");
  } else {
    Layers layers;
    std::vector<double> traced_ms, untraced_ms;
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      ++attempted;
      double frame_ms = 0.0;
      if (!w->trace_layers(s, &layers, &frame_ms)) ++failed;
      untraced_ms.push_back(frame_ms);
      ++attempted;
      if (!w->trace_profile(s, &layers, &frame_ms)) ++failed;
      traced_ms.push_back(frame_ms);
    }
    while (Clock::now() < deadline) {
      for (std::size_t s = 0; s < shapes.size(); ++s) {
        ++attempted;
        double frame_ms = 0.0;
        if (!w->trace_layers(s, &layers, &frame_ms)) ++failed;
      }
    }
    double traced = 0.0, untraced = 0.0;
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      traced += traced_ms[s];
      untraced += untraced_ms[s];
    }
    layers.set("obs.trace_overhead", untraced > 0 ? traced / untraced : 0.0);
    for (const MetricDef& d : per_layer_defs()) {
      values[d.name] = layers.mean(d.name);
    }
  }

  w->provenance();
  const double failed_frac = double(failed) / double(attempted);
  std::printf("failed_frac = %.6f (%lld of %lld ops failed their check)\n",
              failed_frac, static_cast<long long>(failed),
              static_cast<long long>(attempted));
  const std::vector<MetricDef> defs =
      a.trace == 0 ? kEndToEnd : per_layer_defs();
  for (const MetricDef& d : defs) {
    std::printf("metric %-34s %.9g %s\n", d.name.c_str(), values.at(d.name),
                d.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + d.name + "\": {\"value\": " +
            json_number(values.at(d.name)) + ", \"unit\": \"" + d.unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pvr_perfbench: %s\n", e.what());
    return 2;
  }
}
