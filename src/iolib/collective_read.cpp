#include "iolib/collective_read.hpp"

#include <algorithm>
#include <cstring>

#include "iolib/two_phase.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace pvr::iolib {

namespace {

/// Scatters the part of `slab` that falls inside [lo, hi) from a chunk
/// buffer (covering file range [buf_lo, ...)) into the owning brick.
void scatter_slab(const format::SlabRequest& slab, std::int64_t z,
                  std::int64_t lo, std::int64_t hi,
                  std::span<const std::byte> buf, std::int64_t buf_lo,
                  bool big_endian, Brick& brick) {
  const Box3i& box = brick.box();
  const std::int64_t eb = 4;  // float32 scatter
  for (std::int64_t r = 0; r < slab.nrows; ++r) {
    const std::int64_t row_start = slab.first + r * slab.row_stride;
    const std::int64_t row_end = row_start + slab.row_bytes;
    const std::int64_t s = std::max(row_start, lo);
    const std::int64_t e = std::min(row_end, hi);
    if (s >= e) continue;
    const std::int64_t y = box.lo.y + r;
    const std::int64_t x0 = box.lo.x + (s - row_start) / eb;
    const std::size_t count = std::size_t((e - s) / eb);
    PVR_ASSERT(s - buf_lo >= 0 &&
               std::size_t(s - buf_lo) + count * 4 <= buf.size());
    float* dst = brick.data().data() + brick.row_index(y, z) +
                 std::size_t(x0 - box.lo.x);
    const std::byte* src = buf.data() + (s - buf_lo);
    if (big_endian) {
      format::big_endian_to_floats({src, count * 4}, {dst, count});
    } else {
      std::memcpy(dst, src, count * 4);
    }
  }
}

}  // namespace

double model_open_cost(const format::VolumeLayout& layout,
                       std::span<const RankBlock> blocks,
                       const storage::StorageModel& sm,
                       storage::AccessLog* log) {
  const std::vector<format::Extent> meta = layout.open_metadata_accesses();
  if (meta.empty() || blocks.empty()) return 0.0;
  // Every process reads the metadata; the reads are absorbed by server
  // caches, so they cost per-access metadata latency serialized per rank,
  // all ranks in parallel.
  const double per_rank =
      double(meta.size()) * sm.config().metadata_access_latency;
  if (log != nullptr) {
    for (const RankBlock& b : blocks) {
      for (const format::Extent& e : meta) {
        log->record(storage::PhysicalAccess{e.offset, e.length, b.rank});
      }
    }
  }
  return per_rank;
}

CollectiveReader::CollectiveReader(runtime::Runtime& rt,
                                   const storage::StorageModel& sm,
                                   const Hints& hints)
    : rt_(&rt), storage_(&sm), hints_(hints) {
  PVR_REQUIRE(hints.cb_buffer_bytes > 0, "cb_buffer_bytes must be positive");
  PVR_REQUIRE(hints.aggregators_per_ion > 0,
              "aggregators_per_ion must be positive");
}

ReadResult CollectiveReader::read(const format::VolumeLayout& layout, int var,
                                  std::span<const RankBlock> blocks,
                                  format::FileHandle* file,
                                  std::span<Brick> bricks,
                                  storage::AccessLog* log) {
  const int vars[] = {var};
  return read_vars(layout, vars, blocks, file, bricks, log);
}

ReadResult CollectiveReader::read_vars(const format::VolumeLayout& layout,
                                       std::span<const int> vars,
                                       std::span<const RankBlock> blocks,
                                       format::FileHandle* file,
                                       std::span<Brick> bricks,
                                       storage::AccessLog* log) {
  PVR_REQUIRE(hints_.collective_buffering,
              "CollectiveReader requires collective_buffering; use "
              "IndependentReader otherwise");
  PVR_REQUIRE(!vars.empty(), "need at least one variable");
  const bool execute = rt_->mode() == runtime::Mode::kExecute &&
                       file != nullptr && !bricks.empty();
  if (execute) {
    PVR_REQUIRE(bricks.size() == blocks.size() * vars.size(),
                "need one brick per (block, variable) in execute mode");
    PVR_REQUIRE(layout.desc().element_bytes == 4,
                "execute-mode scatter supports float32 only");
    for (std::size_t i = 0; i < bricks.size(); ++i) {
      PVR_REQUIRE(bricks[i].box() == blocks[i / vars.size()].box,
                  "brick box must match its block");
    }
  }

  obs::Tracer* tracer = rt_->tracer();
  obs::ScopedSpan io_span(tracer, "io.collective_read", obs::Category::kIo);

  ReadResult result;
  result.open_seconds = model_open_cost(layout, blocks, *storage_, log);
  if (tracer != nullptr) {
    // Per-rank open-time metadata reads (netCDF header, SHDF objects).
    obs::ScopedSpan open_span(tracer, "io.open", obs::Category::kStorage);
    open_span.arg("ranks", double(blocks.size()));
    tracer->advance(result.open_seconds);
  }

  // ---- Phase 1: the global request, streamed: one pass over every (block,
  // variable, z slice) slab sizes it and finds the file range it spans.
  const RequestSummary req = summarize_request(layout, vars, blocks);
  result.useful_bytes = req.useful_bytes;
  if (req.slabs == 0) {
    result.seconds = result.open_seconds;
    return result;
  }

  // ---- Phase 2: file domains over the aggregators, stripe-aligned.
  const FileDomains domains(*rt_, *storage_, hints_, req.range_lo,
                            req.range_hi);

  // ---- Phase 3: a second pass over the slabs marks every window holding a
  // wanted byte and sums each block's shuffle bytes per domain. ROMIO reads
  // the *whole* buffer window once any byte in it is wanted (data sieving
  // at window granularity); hole-only windows are skipped. This is what
  // makes untuned record-variable reads touch most of the file (paper
  // Fig 9). Shuffle rows land in one bucket per aggregator rank, so
  // domains that share an aggregator after fault reassignment merge.
  std::vector<std::uint8_t> touched(std::size_t(domains.windows()));
  std::vector<std::int64_t> aggs(std::size_t(domains.count()));
  for (std::int64_t d = 0; d < domains.count(); ++d) {
    aggs[std::size_t(d)] = domains.aggregator(d);
  }
  std::sort(aggs.begin(), aggs.end());
  aggs.erase(std::unique(aggs.begin(), aggs.end()), aggs.end());
  std::vector<std::size_t> agg_slot(std::size_t(domains.count()));
  for (std::int64_t d = 0; d < domains.count(); ++d) {
    agg_slot[std::size_t(d)] = std::size_t(
        std::lower_bound(aggs.begin(), aggs.end(), domains.aggregator(d)) -
        aggs.begin());
  }
  std::vector<std::vector<ShuffleBytes>> rows(aggs.size());
  WindowSlabs window_slabs;  // execute mode only
  walk_request(
      layout, vars, blocks, domains, execute ? &window_slabs : nullptr,
      [&](std::int64_t w, std::int64_t, std::int64_t, std::int64_t,
          const format::SlabRequest&) { touched[std::size_t(w)] = 1; },
      [&](std::size_t block, std::int64_t d, std::int64_t bytes) {
        rows[agg_slot[std::size_t(d)]].push_back(
            ShuffleBytes{domains.aggregator(d), blocks[block].rank, bytes});
      });

  // ---- Phase 4: physical accesses, one per touched window in (domain,
  // window) order, and their storage cost. fn(access, w) per window.
  const auto for_each_access = [&](auto&& fn) {
    for (std::int64_t d = 0; d < domains.count(); ++d) {
      const std::int64_t base = domains.window_base(d);
      for (std::int64_t w = base; w < domains.window_base(d + 1); ++w) {
        if (touched[std::size_t(w)] == 0) continue;
        const std::int64_t w_lo = domains.window_lo(d, w - base);
        fn(storage::PhysicalAccess{w_lo,
                                   domains.window_hi(d, w - base) - w_lo,
                                   domains.aggregator(d)},
           w);
      }
    }
  };
  std::vector<storage::PhysicalAccess> accesses;
  accesses.reserve(std::size_t(
      std::count(touched.begin(), touched.end(), std::uint8_t{1})));
  for_each_access([&](const storage::PhysicalAccess& a, std::int64_t) {
    accesses.push_back(a);
  });
  {
    obs::ScopedSpan storage_span(tracer, "io.storage",
                                 obs::Category::kStorage);
    result.storage_cost = storage_->read_cost(
        accesses, rt_->fault_plan(), rt_->fault_stats(),
        tracer != nullptr ? &tracer->metrics() : nullptr);
    if (tracer != nullptr) {
      storage_span.arg("accesses", double(result.storage_cost.accesses));
      storage_span.arg("physical_bytes",
                       double(result.storage_cost.physical_bytes));
      storage_span.arg("server_seconds", result.storage_cost.server_seconds);
      storage_span.arg("ion_seconds", result.storage_cost.ion_seconds);
      storage_span.arg("cap_seconds", result.storage_cost.cap_seconds);
      storage_span.arg("client_seconds", result.storage_cost.client_seconds);
      tracer->advance(result.storage_cost.seconds);
    }
  }
  result.accesses = result.storage_cost.accesses;
  result.physical_bytes = result.storage_cost.physical_bytes;
  if (log != nullptr) {
    log->record_all(accesses);
    log->set_useful_bytes(result.useful_bytes);
  }

  // ---- Phase 5: the shuffle (aggregator -> requester), one message per
  // (aggregator, rank) pair in that order, priced on the torus. The
  // shuffle is pipelined: each aggregator processes its domain one
  // cb-buffer round at a time, so only ~1/rounds of the messages are in
  // flight at once.
  std::size_t row_count = 0;
  for (const std::vector<ShuffleBytes>& bucket : rows) {
    row_count += bucket.size();
  }
  std::vector<runtime::Message> shuffle;
  shuffle.reserve(row_count);
  for (std::vector<ShuffleBytes>& bucket : rows) {
    append_messages(&bucket, &shuffle);
  }
  rows.clear();
  result.shuffle_cost =
      rt_->exchange_messages(std::move(shuffle), nullptr, domains.rounds());

  // ---- Execute mode: actually read the windows and scatter to bricks.
  if (execute) {
    std::vector<std::byte> buf;
    for_each_access([&](const storage::PhysicalAccess& a, std::int64_t w) {
      buf.resize(std::size_t(a.bytes));
      file->read_at(a.offset, buf);
      for (const std::int32_t si : window_slabs.of_window[std::size_t(w)]) {
        const SlabEntry& e = window_slabs.slabs[std::size_t(si)];
        scatter_slab(e.slab, e.z, a.offset, a.offset + a.bytes, buf,
                     a.offset, layout.big_endian_data(), bricks[e.brick]);
      }
    });
  }

  result.seconds = result.open_seconds + result.storage_cost.seconds +
                   result.shuffle_cost.seconds;
  if (tracer != nullptr) {
    io_span.arg("blocks", double(blocks.size()));
    io_span.arg("variables", double(vars.size()));
    io_span.arg("aggregators", double(domains.count()));
    io_span.arg("useful_bytes", double(result.useful_bytes));
    io_span.arg("physical_bytes", double(result.physical_bytes));
    io_span.arg("data_density", result.data_density());
  }
  return result;
}

}  // namespace pvr::iolib
