#include "compose/schedule.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace pvr::compose {

std::vector<ScheduledMessage> build_direct_send_schedule(
    std::span<const BlockScreenInfo> blocks,
    const ImagePartition& partition) {
  std::vector<ScheduledMessage> schedule;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const BlockScreenInfo& info = blocks[b];
    if (info.footprint.empty()) continue;
    std::int64_t tx0, tx1, ty0, ty1;
    partition.tile_range(info.footprint, &tx0, &tx1, &ty0, &ty1);
    for (std::int64_t ty = ty0; ty < ty1; ++ty) {
      for (std::int64_t tx = tx0; tx < tx1; ++tx) {
        const std::int64_t tile = partition.tile_index(tx, ty);
        const Rect r = info.footprint.intersect(partition.tile(tile));
        if (r.empty()) continue;
        schedule.push_back(ScheduledMessage{info.rank, tile,
                                            std::int32_t(b), r, info.depth});
      }
    }
  }
  return schedule;
}

std::int64_t total_scheduled_pixels(
    std::span<const ScheduledMessage> schedule) {
  std::int64_t total = 0;
  for (const ScheduledMessage& m : schedule) total += m.pixels();
  return total;
}

void fold_coverage(const PixelTally& tally, fault::FaultStats* stats) {
  if (stats == nullptr || tally.scheduled <= 0) return;
  stats->coverage = std::min(
      stats->coverage, double(tally.delivered) / double(tally.scheduled));
}

double charge_blend(std::int64_t pixels, double blends_per_second,
                    obs::Tracer* tracer) {
  const double seconds = double(pixels) / blends_per_second;
  if (tracer != nullptr) {
    obs::ScopedSpan span(tracer, "composite.blend", obs::Category::kCompute);
    span.arg("worst_blend_pixels", double(pixels));
    tracer->advance(seconds);
  }
  return seconds;
}

VisibilityOrder visibility_order(std::span<const BlockScreenInfo> blocks) {
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    PVR_REQUIRE(blocks[i].rank == std::int64_t(i),
                "blocks must be listed in rank order");
  }
  VisibilityOrder v{std::vector<std::int64_t>(blocks.size()),
                    std::vector<std::int64_t>(blocks.size())};
  std::iota(v.order.begin(), v.order.end(), 0);
  std::sort(v.order.begin(), v.order.end(),
            [&](std::int64_t a, std::int64_t b) {
              const double da = blocks[std::size_t(a)].depth;
              const double db = blocks[std::size_t(b)].depth;
              return da != db ? da < db : a < b;
            });
  for (std::size_t i = 0; i < v.order.size(); ++i) {
    v.pos[std::size_t(v.order[i])] = std::int64_t(i);
  }
  return v;
}

Substitution substitute_dead_partners(
    std::span<const std::int64_t> order, std::span<const int> round_sizes,
    std::span<const BlockScreenInfo> blocks, int width, int height,
    const fault::FaultPlan& plan, const machine::Partition& part,
    fault::FaultStats* stats, obs::Tracer* tracer) {
  const std::int64_t n = std::int64_t(order.size());
  std::int64_t product = 1;
  for (const int k : round_sizes) product *= k;
  PVR_REQUIRE(product == n,
              "round sizes must factor the compositing communicator");
  Substitution sub;
  sub.actor.assign(order.begin(), order.end());
  std::vector<std::int64_t> group;
  for (std::int64_t p = 0; p < n; ++p) {
    if (!plan.rank_failed(order[std::size_t(p)], part)) continue;
    // Widen through the nested round-prefix groups: after round i, the
    // positions sharing all mixed-radix digits above i form one block of
    // prod(round_sizes[0..i]) consecutive positions — the set of ranks the
    // dead rank's data has mixed with so far, and the natural place its
    // role can be absorbed without breaking the recursion.
    std::int64_t proxy = -1;
    std::int64_t block = 1;
    for (const int k : round_sizes) {
      block *= k;
      if (k == 1) continue;  // radix-1 rounds widen nothing
      const std::int64_t base = (p / block) * block;
      group.clear();
      for (std::int64_t d = 1; d < block; ++d) {
        group.push_back(order[std::size_t(base + (p - base + d) % block)]);
      }
      proxy = plan.first_live_rank(group, part);
      if (proxy >= 0) break;
    }
    if (proxy < 0) {
      throw Error(
          "partner substitution impossible: every rank in the compositing "
          "communicator is on a failed node");
    }
    sub.actor[std::size_t(p)] = proxy;
    if (stats != nullptr) ++stats->substituted_partners;
    if (tracer != nullptr) {
      tracer->instant("fault.partner_substituted", obs::Category::kFault,
                      {{"position", double(p)},
                       {"from_rank", double(order[std::size_t(p)])},
                       {"to_rank", double(proxy)}});
    }
  }
  // Coverage over block footprints clipped to the image.
  const Rect image{0, 0, width, height};
  PixelTally tally;
  for (const BlockScreenInfo& info : blocks) {
    const std::int64_t pixels = info.footprint.intersect(image).pixel_count();
    tally.scheduled += pixels;
    if (!plan.rank_failed(info.rank, part)) tally.delivered += pixels;
  }
  fold_coverage(tally, stats);
  for (std::int64_t r = 0; r < n; ++r) {
    if (!plan.rank_failed(r, part)) ++sub.live;
  }
  return sub;
}

void charge_partner_discovery(std::int64_t redirected,
                              const fault::FaultPlan& plan,
                              net::ExchangeCost* exchange,
                              fault::FaultStats* stats, obs::Tracer* tracer) {
  if (redirected <= 0) return;
  const fault::FaultSpec& spec = plan.spec();
  const double stall =
      double(redirected) * spec.max_retries * spec.retry_timeout;
  exchange->seconds += stall;
  exchange->retry_seconds += stall;
  if (stats != nullptr) stats->retries += redirected * spec.max_retries;
  if (tracer != nullptr && stall > 0.0) {
    obs::ScopedSpan span(tracer, "fault.partner_discovery",
                         obs::Category::kFault);
    span.arg("redirected_messages", double(redirected));
    tracer->advance(stall);
  }
}

std::vector<Image> rank_buffers(std::span<const render::SubImage> subimages,
                                int width, int height) {
  std::vector<Image> buffers;
  buffers.reserve(subimages.size());
  for (const render::SubImage& sub : subimages) {
    buffers.emplace_back(width, height);
    if (!sub.rect.empty()) buffers.back().insert(sub.rect, sub.pixels);
  }
  return buffers;
}

void assemble_regions(std::span<const Rect> regions,
                      std::span<const Image> buffers, int width, int height,
                      Image* out) {
  *out = Image(width, height);
  for (std::size_t r = 0; r < regions.size(); ++r) {
    if (regions[r].empty()) continue;
    out->insert(regions[r], buffers[r].extract(regions[r]));
  }
}

}  // namespace pvr::compose
