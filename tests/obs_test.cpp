// Tests for the pvr::obs subsystem: tracer/span mechanics, metric types,
// deterministic exporters, and the pipeline integration (stage spans must
// account for the stage seconds FrameStats reports, and an attached tracer
// must not change any modeled number).
#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.hpp"
#include "fault/fault_plan.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace pvr::obs {
namespace {

core::ExperimentConfig model_config(std::int64_t ranks = 64) {
  core::ExperimentConfig cfg;
  cfg.num_ranks = ranks;
  cfg.dataset = format::supernova_desc(format::FileFormat::kRaw, 224);
  cfg.variable = cfg.dataset.variables.front();
  cfg.image_width = 256;
  cfg.image_height = 256;
  cfg.composite.policy = compose::CompositorPolicy::kImproved;
  return cfg;
}

// --- tracer mechanics ---

TEST(TracerTest, SpansNestAndBracketAdvances) {
  Tracer t;
  const auto outer = t.begin("outer", Category::kIo);
  t.advance(1.0);
  const auto inner = t.begin("inner", Category::kStorage);
  t.advance(2.0);
  t.end(inner);
  t.end(outer);
  ASSERT_EQ(t.spans().size(), 2u);
  const Span& o = t.spans()[std::size_t(outer)];
  const Span& i = t.spans()[std::size_t(inner)];
  EXPECT_EQ(o.parent, -1);
  EXPECT_EQ(i.parent, outer);
  EXPECT_EQ(i.depth, o.depth + 1);
  EXPECT_DOUBLE_EQ(o.seconds(), 3.0);
  EXPECT_DOUBLE_EQ(i.seconds(), 2.0);
  EXPECT_GE(i.start, o.start);
  EXPECT_LE(i.end, o.end);
  EXPECT_EQ(t.open_depth(), 0);
}

TEST(TracerTest, EndingOutOfOrderFailsLoud) {
  Tracer t;
  const auto outer = t.begin("outer", Category::kOther);
  t.begin("inner", Category::kOther);
  EXPECT_THROW(t.end(outer), Error);
}

TEST(TracerTest, ScopedSpanToleratesNullTracer) {
  ScopedSpan span(nullptr, "nothing", Category::kOther);
  span.arg("ignored", 1.0);
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.close(), -1);
}

TEST(MetricsTest, HistogramBucketsByPowerOfTwo) {
  Histogram h;
  h.record(0);
  h.record(1);
  h.record(7);
  h.record(8);
  h.record(1024);
  EXPECT_EQ(h.count, 5);
  EXPECT_EQ(h.sum, 0 + 1 + 7 + 8 + 1024);
  EXPECT_EQ(h.max_value, 1024);
  EXPECT_DOUBLE_EQ(h.mean(), double(h.sum) / 5.0);
}

TEST(MetricsTest, IndexedCounterTracksBusiest) {
  IndexedCounter c;
  c.add(3, 10);
  c.add(7, 25);
  c.add(3, 5);
  EXPECT_EQ(c.total(), 40);
  EXPECT_EQ(c.busiest().first, 7);
  EXPECT_EQ(c.busiest().second, 25);
}

TEST(MetricsTest, HottestOrdersByValueThenIndexDeterministically) {
  IndexedCounter c;
  c.add(9, 5);
  c.add(2, 12);
  c.add(5, 5);   // ties with index 9: index ascending breaks the tie
  c.add(1, 5);
  c.add(4, 30);
  const auto ranked = c.hottest();
  ASSERT_EQ(ranked.size(), 5u);
  EXPECT_EQ(ranked[0], (std::pair<std::int64_t, std::int64_t>{4, 30}));
  EXPECT_EQ(ranked[1], (std::pair<std::int64_t, std::int64_t>{2, 12}));
  // The 5-valued tie group is totally ordered by index.
  EXPECT_EQ(ranked[2].first, 1);
  EXPECT_EQ(ranked[3].first, 5);
  EXPECT_EQ(ranked[4].first, 9);

  // Two counters holding the same contents (built in different insertion
  // orders) rank identically — the ordering is a pure function of state.
  IndexedCounter d;
  d.add(1, 5);
  d.add(4, 30);
  d.add(5, 5);
  d.add(9, 5);
  d.add(2, 12);
  EXPECT_EQ(c.hottest(), d.hottest());

  EXPECT_TRUE(IndexedCounter{}.hottest().empty());
}

// --- pipeline integration ---

TEST(ObsPipelineTest, TwoRunsProduceByteIdenticalTraceJson) {
  const auto run_once = [] {
    core::ParallelVolumeRenderer renderer(model_config());
    Tracer tracer;
    renderer.set_tracer(&tracer);
    renderer.model_frame();
    return std::pair(to_chrome_trace_json(tracer),
                     to_metrics_json(tracer.metrics()));
  };
  const auto [trace1, metrics1] = run_once();
  const auto [trace2, metrics2] = run_once();
  EXPECT_EQ(trace1, trace2);
  EXPECT_EQ(metrics1, metrics2);
  EXPECT_NE(trace1.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace1.find("stage.io"), std::string::npos);
  EXPECT_NE(metrics1.find("net.message_bytes"), std::string::npos);
}

TEST(ObsPipelineTest, SpanTreeIsWellFormed) {
  core::ParallelVolumeRenderer renderer(model_config());
  Tracer tracer;
  renderer.set_tracer(&tracer);
  renderer.model_frame();
  EXPECT_EQ(tracer.open_depth(), 0);
  const auto& spans = tracer.spans();
  ASSERT_FALSE(spans.empty());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    EXPECT_LE(s.start, s.end) << s.name;
    if (s.parent == -1) {
      EXPECT_EQ(s.depth, 0) << s.name;
      continue;
    }
    // Parents precede their children and fully contain them.
    ASSERT_LT(std::size_t(s.parent), i) << s.name;
    const Span& p = spans[std::size_t(s.parent)];
    EXPECT_EQ(s.depth, p.depth + 1) << s.name;
    EXPECT_GE(s.start, p.start) << s.name;
    EXPECT_LE(s.end, p.end) << s.name;
  }
}

TEST(ObsPipelineTest, StageSpansMatchFrameStatsExactly) {
  core::ParallelVolumeRenderer renderer(model_config());
  Tracer tracer;
  renderer.set_tracer(&tracer);
  const core::FrameStats stats = renderer.model_frame();
  ASSERT_TRUE(stats.trace.enabled);
  EXPECT_NEAR(stats.trace.io_seconds, stats.io_seconds, 1e-9);
  EXPECT_NEAR(stats.trace.render_seconds, stats.render_seconds, 1e-9);
  EXPECT_NEAR(stats.trace.composite_seconds, stats.composite_seconds, 1e-9);
  EXPECT_NEAR(stats.trace.frame_seconds, stats.total_seconds(), 1e-9);
  EXPECT_GE(stats.trace.coverage(), 0.95);
  // Exchange-round spans must add up to the stage costs they price: the
  // reader's shuffle plus the compositor's rounds.
  double exchange_sum = 0.0;
  for (const Span& s : tracer.spans()) {
    if (s.cat == Category::kExchange) exchange_sum += s.seconds();
  }
  EXPECT_NEAR(exchange_sum,
              stats.io.shuffle_cost.seconds + stats.composite.exchange.seconds,
              1e-9);
  // Storage spans cover the open + batch cost of the read.
  double storage_sum = 0.0;
  for (const Span& s : tracer.spans()) {
    if (s.cat == Category::kStorage) storage_sum += s.seconds();
  }
  EXPECT_NEAR(storage_sum,
              stats.io.open_seconds + stats.io.storage_cost.seconds, 1e-9);
}

TEST(ObsPipelineTest, NullTracerChangesNoFrameStatsField) {
  core::ParallelVolumeRenderer plain(model_config());
  const core::FrameStats base = plain.model_frame();
  EXPECT_FALSE(base.trace.enabled);

  core::ParallelVolumeRenderer traced(model_config());
  Tracer tracer;
  traced.set_tracer(&tracer);
  const core::FrameStats with = traced.model_frame();

  EXPECT_EQ(base.io_seconds, with.io_seconds);
  EXPECT_EQ(base.render_seconds, with.render_seconds);
  EXPECT_EQ(base.composite_seconds, with.composite_seconds);
  EXPECT_EQ(base.io.useful_bytes, with.io.useful_bytes);
  EXPECT_EQ(base.io.physical_bytes, with.io.physical_bytes);
  EXPECT_EQ(base.io.accesses, with.io.accesses);
  EXPECT_EQ(base.io.shuffle_cost.seconds, with.io.shuffle_cost.seconds);
  EXPECT_EQ(base.render.total_samples, with.render.total_samples);
  EXPECT_EQ(base.render.max_rank_samples, with.render.max_rank_samples);
  EXPECT_EQ(base.composite.messages, with.composite.messages);
  EXPECT_EQ(base.composite.bytes, with.composite.bytes);
  EXPECT_EQ(base.composite.blend_seconds, with.composite.blend_seconds);
}

TEST(ObsPipelineTest, FaultyFrameEmitsRecoveryInstants) {
  core::ExperimentConfig cfg = model_config();
  core::ParallelVolumeRenderer renderer(cfg);
  fault::FaultPlan plan;
  plan.fail_node(1);
  Tracer tracer;
  renderer.set_tracer(&tracer);
  const core::FrameStats stats = renderer.model_frame_with_faults(plan);
  ASSERT_TRUE(stats.trace.enabled);
  EXPECT_GE(stats.trace.coverage(), 0.95);
  bool armed = false, complete = false;
  for (const Instant& i : tracer.instants()) {
    if (i.name == "fault.plan_armed") armed = true;
    if (i.name == "fault.recovery_complete") complete = true;
  }
  EXPECT_TRUE(armed);
  EXPECT_TRUE(complete);
}

TEST(ObsPipelineTest, ReportNamesHotLinksAndSlowSpans) {
  core::ParallelVolumeRenderer renderer(model_config());
  Tracer tracer;
  renderer.set_tracer(&tracer);
  renderer.model_frame();
  const std::string rep = report(tracer);
  EXPECT_NE(rep.find("net.link_bytes"), std::string::npos);
  EXPECT_NE(rep.find("net.exchange"), std::string::npos);
}

TEST(ObsExportTest, WriteTextFileThrowsNamingThePath) {
  const std::string path = "/nonexistent-dir/trace.json";
  try {
    write_text_file(path, "{}");
    FAIL() << "expected pvr::Error for unwritable path";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

TEST(ObsExportTest, JsonEscapeCoversControlCharacters) {
  EXPECT_EQ(json_escape("plain/name_1"), "plain/name_1");
  EXPECT_EQ(json_escape("q\"b\\"), "q\\\"b\\\\");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape("t\tc\x01\x1f"), "t\\u0009c\\u0001\\u001f");
  // No raw control character survives into the output.
  const std::string all = json_escape(std::string("\x00\r\b\f\x7f", 5));
  for (const char c : all) EXPECT_GE(static_cast<unsigned char>(c), 0x20);
}

TEST(ObsPipelineTest, TracerResetAllowsFrameReuse) {
  core::ParallelVolumeRenderer renderer(model_config());
  Tracer tracer;
  renderer.set_tracer(&tracer);
  renderer.model_frame();
  const std::string first = to_chrome_trace_json(tracer);
  tracer.reset();
  EXPECT_EQ(tracer.now(), 0.0);
  EXPECT_TRUE(tracer.spans().empty());
  renderer.model_frame();
  EXPECT_EQ(to_chrome_trace_json(tracer), first);
}

}  // namespace
}  // namespace pvr::obs
