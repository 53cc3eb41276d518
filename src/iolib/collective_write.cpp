#include "iolib/collective_write.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "iolib/two_phase.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace pvr::iolib {

namespace {

/// Copies the part of `slab` inside [lo, hi) from the owning brick into a
/// window buffer covering file range [buf_lo, ...), converting endianness.
void gather_slab(const format::SlabRequest& slab, std::int64_t z,
                 std::int64_t lo, std::int64_t hi, std::span<std::byte> buf,
                 std::int64_t buf_lo, bool big_endian, const Brick& brick) {
  const Box3i& box = brick.box();
  const std::int64_t eb = 4;
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
    const float* src = brick.data().data() + brick.row_index(y, z) +
                       std::size_t(x0 - box.lo.x);
    std::byte* dst = buf.data() + (s - buf_lo);
    if (big_endian) {
      format::floats_to_big_endian({src, count}, {dst, count * 4});
    } else {
      std::memcpy(dst, src, count * 4);
    }
  }
}

}  // namespace

CollectiveWriter::CollectiveWriter(runtime::Runtime& rt,
                                   const storage::StorageModel& sm,
                                   const Hints& hints)
    : rt_(&rt), storage_(&sm), hints_(hints) {
  PVR_REQUIRE(hints.cb_buffer_bytes > 0, "cb_buffer_bytes must be positive");
  PVR_REQUIRE(hints.aggregators_per_ion > 0,
              "aggregators_per_ion must be positive");
}

ReadResult CollectiveWriter::write(const format::VolumeLayout& layout,
                                   int var,
                                   std::span<const RankBlock> blocks,
                                   format::FileHandle* file,
                                   std::span<const Brick> bricks,
                                   storage::AccessLog* log) {
  const int vars[] = {var};
  return write_vars(layout, vars, blocks, file, bricks, log);
}

ReadResult CollectiveWriter::write_vars(const format::VolumeLayout& layout,
                                        std::span<const int> vars,
                                        std::span<const RankBlock> blocks,
                                        format::FileHandle* file,
                                        std::span<const Brick> bricks,
                                        storage::AccessLog* log) {
  PVR_REQUIRE(!vars.empty(), "need at least one variable");
  const bool execute = rt_->mode() == runtime::Mode::kExecute &&
                       file != nullptr && !bricks.empty();
  if (execute) {
    PVR_REQUIRE(bricks.size() == blocks.size() * vars.size(),
                "need one brick per (block, variable) in execute mode");
    PVR_REQUIRE(layout.desc().element_bytes == 4,
                "execute-mode gather supports float32 only");
    for (std::size_t i = 0; i < bricks.size(); ++i) {
      PVR_REQUIRE(bricks[i].box() == blocks[i / vars.size()].box,
                  "brick box must match its block");
    }
  }

  obs::Tracer* tracer = rt_->tracer();
  obs::ScopedSpan io_span(tracer, "io.collective_write", obs::Category::kIo);

  ReadResult result;

  // ---- Phase 1: the request's size and file range, as in the reader.
  const RequestSummary req = summarize_request(layout, vars, blocks);
  result.useful_bytes = req.useful_bytes;
  if (req.slabs == 0) return result;

  // ---- Phase 2: stripe-aligned file domains (shared with the reader).
  const FileDomains domains(*rt_, *storage_, hints_, req.range_lo,
                            req.range_hi);

  // ---- Phase 3: per-window coverage + shuffle bytes (rank -> aggregator),
  // over a dense window index. A window is touched when `wanted` > 0;
  // [trim_lo, trim_hi) is the span its writers actually cover.
  const std::size_t windows = std::size_t(domains.windows());
  std::vector<std::int64_t> wanted(windows, 0);
  std::vector<std::int64_t> trim_lo(windows,
                                    std::numeric_limits<std::int64_t>::max());
  std::vector<std::int64_t> trim_hi(windows, 0);
  std::vector<ShuffleBytes> rows;
  WindowSlabs window_slabs;  // execute mode only
  walk_request(
      layout, vars, blocks, domains, execute ? &window_slabs : nullptr,
      [&](std::int64_t w, std::int64_t w_lo, std::int64_t w_hi,
          std::int64_t first_wanted, const format::SlabRequest& slab) {
        const std::size_t wi = std::size_t(w);
        wanted[wi] += slab.useful_bytes_in(w_lo, w_hi);
        trim_lo[wi] = std::min(trim_lo[wi], first_wanted);
        trim_hi[wi] = std::max(
            trim_hi[wi],
            slab.last_wanted_before(std::min(w_hi, slab.hull_end())));
      },
      [&](std::size_t block, std::int64_t d, std::int64_t bytes) {
        rows.push_back(
            ShuffleBytes{blocks[block].rank, domains.aggregator(d), bytes});
      });

  // ---- Phase 4: the shuffle (writer -> aggregator), one message per
  // (rank, aggregator) pair in that order, priced on the torus.
  std::vector<runtime::Message> shuffle;
  append_messages(&rows, &shuffle);
  result.shuffle_cost =
      rt_->exchange_messages(std::move(shuffle), nullptr, domains.rounds());

  // ---- Phase 5: physical accesses. A window fully covered by wanted bytes
  // is one pure write; a partially covered one needs read-modify-write
  // sieving: read the touched span, merge, write it back (2 accesses).
  std::vector<storage::PhysicalAccess> accesses;
  for (std::int64_t d = 0; d < domains.count(); ++d) {
    for (std::int64_t w = domains.window_base(d);
         w < domains.window_base(d + 1); ++w) {
      if (wanted[std::size_t(w)] == 0) continue;
      const std::int64_t lo = trim_lo[std::size_t(w)];
      const std::int64_t span_len = trim_hi[std::size_t(w)] - lo;
      PVR_ASSERT(span_len > 0);
      if (wanted[std::size_t(w)] < span_len) {
        accesses.push_back(
            storage::PhysicalAccess{lo, span_len, domains.aggregator(d)});
      }
      accesses.push_back(
          storage::PhysicalAccess{lo, span_len, domains.aggregator(d)});
    }
  }
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
      tracer->advance(result.storage_cost.seconds);
    }
  }
  result.accesses = result.storage_cost.accesses;
  result.physical_bytes = result.storage_cost.physical_bytes;
  if (log != nullptr) {
    log->record_all(accesses);
    log->set_useful_bytes(result.useful_bytes);
  }

  // ---- Execute mode: assemble each window and write it.
  if (execute) {
    std::vector<std::byte> buf;
    for (std::int64_t d = 0; d < domains.count(); ++d) {
      const std::int64_t base = domains.window_base(d);
      for (std::int64_t w = base; w < domains.window_base(d + 1); ++w) {
        const std::size_t wi = std::size_t(w);
        if (wanted[wi] == 0) continue;
        const std::int64_t len = trim_hi[wi] - trim_lo[wi];
        buf.resize(std::size_t(len));
        const bool rmw = wanted[wi] < len;
        if (rmw && trim_lo[wi] + len <= file->size()) {
          file->read_at(trim_lo[wi], buf);  // preserve the holes
        } else if (rmw) {
          std::memset(buf.data(), 0, buf.size());
        }
        for (const std::int32_t si : window_slabs.of_window[wi]) {
          const SlabEntry& e = window_slabs.slabs[std::size_t(si)];
          gather_slab(e.slab, e.z,
                      std::max(domains.window_lo(d, w - base), trim_lo[wi]),
                      std::min(domains.window_hi(d, w - base), trim_hi[wi]),
                      buf, trim_lo[wi], layout.big_endian_data(),
                      bricks[e.brick]);
        }
        file->write_at(trim_lo[wi], buf);
      }
    }
  }

  result.seconds = result.storage_cost.seconds + result.shuffle_cost.seconds;
  if (tracer != nullptr) {
    io_span.arg("blocks", double(blocks.size()));
    io_span.arg("variables", double(vars.size()));
    io_span.arg("aggregators", double(domains.count()));
    io_span.arg("useful_bytes", double(result.useful_bytes));
    io_span.arg("physical_bytes", double(result.physical_bytes));
  }
  return result;
}

}  // namespace pvr::iolib
