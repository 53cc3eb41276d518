// Direct-send message schedule (paper §III-B.3): each renderer sends the
// intersection of its block's screen footprint with each compositor tile to
// that tile's owner. The schedule is a pure function of block footprints,
// depths, and the image partition — identical in model and execute mode,
// which is what makes the model's message counts exact.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compose/image_partition.hpp"
#include "fault/fault_plan.hpp"
#include "machine/partition.hpp"
#include "net/transfer.hpp"
#include "obs/trace.hpp"
#include "render/raycaster.hpp"
#include "util/image.hpp"

namespace pvr::compose {

/// Screen-space description of one rendered block.
struct BlockScreenInfo {
  std::int64_t rank = 0;   ///< renderer owning the block
  Rect footprint;          ///< screen bounding rect (may be empty)
  double depth = 0.0;      ///< visibility key (smaller = nearer)
};

/// One scheduled direct-send message.
struct ScheduledMessage {
  std::int64_t src_rank = 0;  ///< renderer
  std::int64_t dst_rank = 0;  ///< compositor (== tile index)
  std::int32_t block_index = 0;  ///< index into the BlockScreenInfo span
  Rect rect;                  ///< pixels carried (footprint ∩ tile)
  double depth = 0.0;
  std::int64_t pixels() const { return rect.pixel_count(); }
};

/// Builds the full direct-send schedule. Compositor for tile i is rank i.
std::vector<ScheduledMessage> build_direct_send_schedule(
    std::span<const BlockScreenInfo> blocks, const ImagePartition& partition);

/// Schedule invariants (used by tests and asserted cheaply in debug):
/// every pixel of every non-empty footprint appears in exactly one message.
std::int64_t total_scheduled_pixels(
    std::span<const ScheduledMessage> schedule);

// --- helpers shared by the compositors ---

/// Scheduled-vs-delivered pixel tally: the single coverage metric every
/// compositor reports under fault injection.
struct PixelTally {
  std::int64_t scheduled = 0;  ///< pixels every renderer should contribute
  std::int64_t delivered = 0;  ///< pixels live renderers actually contribute
};

/// Folds delivered/scheduled into stats->coverage (min across phases, so a
/// frame reports its worst phase). A scheduled count of zero leaves the
/// coverage untouched: a pixel-free phase has nothing to lose. Null stats
/// are a no-op.
void fold_coverage(const PixelTally& tally, fault::FaultStats* stats);

/// Prices blending `pixels` on one compositor core and, when traced,
/// records it as a composite.blend compute span of that length. Returns the
/// blend seconds.
double charge_blend(std::int64_t pixels, double blends_per_second,
                    obs::Tracer* tracer);

// --- the recursive exchange schedules (binary swap, radix-k); blocks[r]
// is rank r's block ---

/// Visibility order: order[i] is the i-th nearest rank (ties by rank),
/// pos[r] is rank r's index in that order. Requires blocks in rank order.
struct VisibilityOrder {
  std::vector<std::int64_t> order;
  std::vector<std::int64_t> pos;
};
VisibilityOrder visibility_order(std::span<const BlockScreenInfo> blocks);

/// Partner substitution under a fault plan (model mode). `round_sizes` are
/// the per-round exchange-group sizes (all 2 for binary swap, the radices
/// for radix-k; their product must be order.size()). Each position held by
/// a dead rank is played by the next live rank in visibility-position
/// order (cyclic) within the smallest round-prefix group that still has a
/// live member; the dead rank's own pixels are dropped. Counts the proxied
/// positions into stats->substituted_partners (one
/// fault.partner_substituted instant each) and folds the block-footprint
/// coverage into `stats` — the direct-send schedule covers each footprint
/// pixel once, so all three compositors report the same coverage. Throws
/// pvr::Error when every rank is dead. Bit-deterministic at any thread
/// count.
struct Substitution {
  std::vector<std::int64_t> actor;  ///< position -> acting rank
  std::int64_t live = 0;            ///< live ranks: the compositors at work
};
Substitution substitute_dead_partners(
    std::span<const std::int64_t> order, std::span<const int> round_sizes,
    std::span<const BlockScreenInfo> blocks, int width, int height,
    const fault::FaultPlan& plan, const machine::Partition& part,
    fault::FaultStats* stats, obs::Tracer* tracer);

/// A sender discovers a dead partner the hard way: max_retries failed
/// attempts before re-addressing the piece to the proxy, priced like the
/// torus prices undeliverable sends. Adds the stall of `redirected` such
/// messages to `exchange` (seconds and retry_seconds) and the retries to
/// `stats`, with a fault.partner_discovery span when traced.
void charge_partner_discovery(std::int64_t redirected,
                              const fault::FaultPlan& plan,
                              net::ExchangeCost* exchange,
                              fault::FaultStats* stats, obs::Tracer* tracer);

/// Per-rank full-image buffers, each seeded with that rank's subimage.
std::vector<Image> rank_buffers(std::span<const render::SubImage> subimages,
                                int width, int height);

/// The final image: every rank's fully composited region of its buffer.
void assemble_regions(std::span<const Rect> regions,
                      std::span<const Image> buffers, int width, int height,
                      Image* out);

}  // namespace pvr::compose
