// The streamed plan of a two-phase collective access, shared by
// CollectiveReader and CollectiveWriter:
//
//   Phase 1  summarize_request: one pass over the request's slabs for its
//            size and file range; no slab array is kept or sorted.
//   Phase 2  FileDomains: the range split into stripe-aligned file domains,
//            one aggregator rank per domain (reassigned off failed nodes),
//            each domain cut into cb_buffer_bytes windows under one dense
//            window index.
//   Phase 3  walk_request: a second pass that visits only what each slab
//            touches: the domains its hull overlaps and, inside each, the
//            windows holding one of its wanted bytes (found by jumping from
//            wanted byte to wanted byte, never by probing every window),
//            summing shuffle bytes per (block, domain).
//
// A collective access therefore costs O(slabs + windows + messages) host
// time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "format/layout.hpp"
#include "iolib/collective_read.hpp"

namespace pvr::iolib {

/// Calls fn(v, z, slab) for every z-slice slab of variables vars[v] of
/// `box`: variables in order, z ascending.
template <class Fn>
void for_each_slab(const format::VolumeLayout& layout,
                   std::span<const int> vars, const Box3i& box,
                   std::vector<format::SlabRequest>* scratch, Fn&& fn) {
  const std::int64_t z0 =
      box.intersect(Box3i{{0, 0, 0}, layout.desc().dims}).lo.z;
  for (std::size_t v = 0; v < vars.size(); ++v) {
    scratch->clear();
    layout.subvolume_slabs(vars[v], box, scratch);
    for (std::size_t s = 0; s < scratch->size(); ++s) {
      fn(v, z0 + std::int64_t(s), (*scratch)[s]);
    }
  }
}

/// Phase 1 of a collective access, streamed: the size and file range of
/// the whole request, without materializing its slabs.
struct RequestSummary {
  std::int64_t slabs = 0;
  std::int64_t useful_bytes = 0;
  std::int64_t range_lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t range_hi = 0;
};

RequestSummary summarize_request(const format::VolumeLayout& layout,
                                 std::span<const int> vars,
                                 std::span<const RankBlock> blocks);

class FileDomains {
 public:
  /// Splits [range_lo, range_hi) evenly over the aggregators (IONs x
  /// aggregators_per_ion, capped by the rank count), aligning the inner
  /// boundaries down to stripes when domains are large enough that
  /// alignment cannot collapse them. A domain whose aggregator sits on a
  /// failed node of the runtime's fault plan goes to the next live rank
  /// (counted in the fault stats, traced as fault.aggregator_reassigned).
  FileDomains(runtime::Runtime& rt, const storage::StorageModel& sm,
              const Hints& hints, std::int64_t range_lo,
              std::int64_t range_hi);

  std::int64_t count() const { return std::int64_t(agg_.size()); }
  std::int64_t lo(std::int64_t d) const { return start_[std::size_t(d)]; }
  std::int64_t hi(std::int64_t d) const { return start_[std::size_t(d) + 1]; }
  std::int64_t aggregator(std::int64_t d) const {
    return agg_[std::size_t(d)];
  }
  std::int64_t cb() const { return cb_; }

  /// Dense window index: window c of domain d is window_base(d) + c, and
  /// domain d owns windows [window_base(d), window_base(d + 1)).
  std::int64_t window_base(std::int64_t d) const {
    return window_base_[std::size_t(d)];
  }
  std::int64_t windows() const { return window_base_.back(); }
  /// File range of window c of domain d.
  std::int64_t window_lo(std::int64_t d, std::int64_t c) const {
    return lo(d) + c * cb_;
  }
  std::int64_t window_hi(std::int64_t d, std::int64_t c) const {
    return std::min(hi(d), window_lo(d, c) + cb_);
  }

  /// Shuffle pipeline depth: aggregators work one cb buffer at a time, so
  /// the largest domain takes ceil(max domain / cb) rounds.
  int rounds() const;

  /// Domain holding `offset` (the last non-empty one starting at or before
  /// it). `hint` carries the last answer between calls (start it at 0):
  /// it and its successor are tried before a binary search, so a walk over
  /// slabs in file order finds each domain in O(1).
  std::int64_t domain_of(std::int64_t offset, std::int64_t* hint) const;

 private:
  std::int64_t cb_ = 0;
  std::vector<std::int64_t> start_;        ///< count() + 1 boundaries
  std::vector<std::int64_t> agg_;          ///< aggregator rank per domain
  std::vector<std::int64_t> window_base_;  ///< count() + 1 prefix sums
};

/// Bytes one rank ships to another in the shuffle.
struct ShuffleBytes {
  std::int64_t src = 0;
  std::int64_t dst = 0;
  std::int64_t bytes = 0;
};

/// Appends one message per distinct (src, dst) pair of `rows`, in (src,
/// dst) order, carrying the pair's summed bytes. Sorts `rows` first unless
/// it is already in that order.
void append_messages(std::vector<ShuffleBytes>* rows,
                     std::vector<runtime::Message>* out);

/// One z-slice of one (block, variable) request; `brick` indexes the
/// variable-major (block, variable) brick array.
struct SlabEntry {
  format::SlabRequest slab;
  std::size_t brick = 0;
  std::int64_t z = 0;
};

/// What execute mode keeps of the walk to move real bytes: every slab, and
/// per window (dense index) the slabs with wanted bytes in it.
struct WindowSlabs {
  std::vector<SlabEntry> slabs;
  std::vector<std::vector<std::int32_t>> of_window;
};

/// Phase 3, shared by reader and writer: streams the request's slabs again
/// (blocks in order, then variables, then z) over `domains` and calls
///   on_window(w, w_lo, w_hi, first_wanted, slab) for every window w
///     (dense index) holding a wanted byte of the slab, and
///   on_pair(block, d, bytes) after each block, once per domain its slabs
///     reach, with the block's wanted bytes in that domain summed,
/// so one shuffle row per (block, domain) leaves the walk, not one per
/// (slab, domain). `record`, if non-null, collects the WindowSlabs.
template <class WindowFn, class PairFn>
void walk_request(const format::VolumeLayout& layout,
                  std::span<const int> vars,
                  std::span<const RankBlock> blocks,
                  const FileDomains& domains, WindowSlabs* record,
                  WindowFn&& on_window, PairFn&& on_pair) {
  if (record != nullptr) {
    record->of_window.assign(std::size_t(domains.windows()), {});
  }
  std::vector<format::SlabRequest> slabs;
  std::vector<std::int64_t> block_bytes(std::size_t(domains.count()));
  std::vector<std::int64_t> block_domains;
  std::int64_t hint = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    for_each_slab(layout, vars, blocks[i].box, &slabs,
                  [&](std::size_t v, std::int64_t z,
                      const format::SlabRequest& slab) {
      if (record != nullptr) {
        record->slabs.push_back(SlabEntry{slab, i * vars.size() + v, z});
      }
      const std::int64_t h_lo = slab.first;
      const std::int64_t h_hi = slab.hull_end();
      for (std::int64_t d = domains.domain_of(h_lo, &hint);
           d < domains.count() && domains.lo(d) < h_hi; ++d) {
        const std::int64_t o_lo = std::max(h_lo, domains.lo(d));
        const std::int64_t o_hi = std::min(h_hi, domains.hi(d));
        const std::int64_t bytes = slab.useful_bytes_in(o_lo, o_hi);
        if (bytes == 0) continue;  // no wanted byte here, so no window either
        std::int64_t& sum = block_bytes[std::size_t(d)];
        if (sum == 0) block_domains.push_back(d);
        sum += bytes;
        // Jump from wanted byte to wanted byte: each step lands in the next
        // window that holds one, skipping hole-only windows.
        for (std::int64_t pos = o_lo;;) {
          const std::int64_t first_wanted = slab.first_wanted_at_or_after(pos);
          if (first_wanted >= o_hi) break;
          const std::int64_t c = (first_wanted - domains.lo(d)) / domains.cb();
          const std::int64_t w = domains.window_base(d) + c;
          pos = domains.window_hi(d, c);
          on_window(w, domains.window_lo(d, c), pos, first_wanted, slab);
          if (record != nullptr) {
            record->of_window[std::size_t(w)].push_back(
                std::int32_t(record->slabs.size() - 1));
          }
        }
      }
    });
    for (const std::int64_t d : block_domains) {
      on_pair(i, d, block_bytes[std::size_t(d)]);
      block_bytes[std::size_t(d)] = 0;
    }
    block_domains.clear();
  }
}

}  // namespace pvr::iolib
