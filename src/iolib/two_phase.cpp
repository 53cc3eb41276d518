#include "iolib/two_phase.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace pvr::iolib {

RequestSummary summarize_request(const format::VolumeLayout& layout,
                                 std::span<const int> vars,
                                 std::span<const RankBlock> blocks) {
  RequestSummary req;
  std::vector<format::SlabRequest> slabs;
  for (const RankBlock& b : blocks) {
    for_each_slab(layout, vars, b.box, &slabs,
                  [&](std::size_t, std::int64_t,
                      const format::SlabRequest& slab) {
                    ++req.slabs;
                    req.useful_bytes += slab.useful_bytes();
                    req.range_lo = std::min(req.range_lo, slab.first);
                    req.range_hi = std::max(req.range_hi, slab.hull_end());
                  });
  }
  return req;
}

void append_messages(std::vector<ShuffleBytes>* rows,
                     std::vector<runtime::Message>* out) {
  const auto before = [](const ShuffleBytes& a, const ShuffleBytes& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  };
  if (!std::is_sorted(rows->begin(), rows->end(), before)) {
    std::sort(rows->begin(), rows->end(), before);
  }
  for (std::size_t i = 0; i < rows->size();) {
    const ShuffleBytes& head = (*rows)[i];
    std::int64_t bytes = 0;
    for (; i < rows->size() && (*rows)[i].src == head.src &&
           (*rows)[i].dst == head.dst;
         ++i) {
      bytes += (*rows)[i].bytes;
    }
    out->push_back(runtime::Message{head.src, head.dst, 0, bytes, {}});
  }
}

FileDomains::FileDomains(runtime::Runtime& rt, const storage::StorageModel& sm,
                         const Hints& hints, std::int64_t range_lo,
                         std::int64_t range_hi)
    : cb_(hints.cb_buffer_bytes) {
  PVR_REQUIRE(cb_ > 0, "cb_buffer_bytes must be positive");
  PVR_REQUIRE(range_lo < range_hi, "file domains need a non-empty range");
  const auto& part = rt.partition();
  const std::int64_t stripe = sm.config().stripe_bytes;
  const std::int64_t num_aggs =
      std::clamp<std::int64_t>(part.num_ions() * hints.aggregators_per_ion,
                               1, part.num_ranks());
  const bool align = (range_hi - range_lo) >= num_aggs * 2 * stripe;
  start_.resize(std::size_t(num_aggs) + 1);
  const double span = double(range_hi - range_lo);
  for (std::int64_t d = 0; d <= num_aggs; ++d) {
    std::int64_t b = range_lo +
                     std::int64_t(span * double(d) / double(num_aggs));
    if (align && d != 0 && d != num_aggs) b = b / stripe * stripe;
    start_[std::size_t(d)] = b;
  }
  start_[std::size_t(num_aggs)] = range_hi;
  for (std::size_t d = 1; d < start_.size(); ++d) {
    start_[d] = std::max(start_[d], start_[d - 1]);
  }

  const fault::FaultPlan* plan = rt.fault_plan();
  fault::FaultStats* fstats = rt.fault_stats();
  obs::Tracer* tracer = rt.tracer();
  const bool faulty = plan != nullptr && !plan->empty();
  agg_.resize(std::size_t(num_aggs));
  for (std::int64_t d = 0; d < num_aggs; ++d) {
    std::int64_t r = d * part.num_ranks() / num_aggs;
    if (faulty && plan->rank_failed(r, part)) {
      const std::int64_t failed = r;
      r = plan->next_live_rank(r, part);
      if (fstats != nullptr) ++fstats->reassigned_aggregators;
      if (tracer != nullptr) {
        tracer->instant("fault.aggregator_reassigned", obs::Category::kFault,
                        {{"domain", double(d)},
                         {"from_rank", double(failed)},
                         {"to_rank", double(r)}});
      }
    }
    agg_[std::size_t(d)] = r;
  }

  window_base_.resize(std::size_t(num_aggs) + 1);
  for (std::int64_t d = 0; d < num_aggs; ++d) {
    const std::int64_t n = ceil_div(hi(d) - lo(d), cb_);
    PVR_REQUIRE(n <= (std::int64_t(1) << 24),
                "cb_buffer_bytes too small: a file domain would span more "
                "than 2^24 buffer windows");
    window_base_[std::size_t(d) + 1] = window_base_[std::size_t(d)] + n;
  }
}

int FileDomains::rounds() const {
  std::int64_t most = 1;
  for (std::int64_t d = 0; d < count(); ++d) {
    most = std::max(most, window_base(d + 1) - window_base(d));
  }
  return int(most);
}

std::int64_t FileDomains::domain_of(std::int64_t offset,
                                    std::int64_t* hint) const {
  const auto holds = [&](std::int64_t d) {
    return d < count() && lo(d) <= offset && offset < hi(d);
  };
  if (holds(*hint)) return *hint;
  if (holds(*hint + 1)) return ++*hint;
  const auto it = std::upper_bound(start_.begin(), start_.end() - 1, offset);
  *hint = std::max<std::int64_t>(0, std::int64_t(it - start_.begin()) - 1);
  return *hint;
}

}  // namespace pvr::iolib
