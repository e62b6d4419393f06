// Span tracing: RAII nesting, ring wraparound, root sampling, the
// disabled fast path, Chrome trace-event export, and end-to-end span
// capture from a live LatestModule stream.

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/latest_module.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "tests/test_stream.h"

namespace latest::obs {
namespace {

/// Installs a collector for the test body and guarantees the global is
/// cleared again even on assertion failure (other tests assume a dark
/// tracer).
class ScopedCollector {
 public:
  explicit ScopedCollector(SpanCollector* collector) {
    SetSpanCollector(collector);
  }
  ~ScopedCollector() { SetSpanCollector(nullptr); }
};

const SpanRecord* FindByName(const std::vector<SpanRecord>& spans,
                             const std::string& name) {
  for (const SpanRecord& span : spans) {
    if (span.name != nullptr && name == span.name) return &span;
  }
  return nullptr;
}

TEST(SpanTest, DisabledTracingRecordsNothing) {
  ASSERT_EQ(GetSpanCollector(), nullptr);
  {
    LATEST_SPAN("never_recorded");
    LATEST_SPAN("also_never");
  }
  // Installing a collector afterwards must not resurrect closed spans.
  SpanCollector collector(16);
  ScopedCollector scoped(&collector);
  EXPECT_EQ(collector.recorded(), 0u);
}

TEST(SpanTest, ParentChildNesting) {
  SpanCollector collector(64);
  ScopedCollector scoped(&collector);
  {
    Span root("root");
    {
      Span child("child");
      Span grandchild("grandchild");
      (void)grandchild;
      (void)child;
    }
    Span sibling("sibling");
    (void)sibling;
    (void)root;
  }
  const std::vector<SpanRecord> spans = collector.Snapshot();
  ASSERT_EQ(spans.size(), 4u);

  const SpanRecord* root = FindByName(spans, "root");
  const SpanRecord* child = FindByName(spans, "child");
  const SpanRecord* grandchild = FindByName(spans, "grandchild");
  const SpanRecord* sibling = FindByName(spans, "sibling");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  ASSERT_NE(grandchild, nullptr);
  ASSERT_NE(sibling, nullptr);

  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(child->parent_id, root->id);
  EXPECT_EQ(grandchild->parent_id, child->id);
  EXPECT_EQ(sibling->parent_id, root->id);

  // Children close before (and start after) their parent.
  EXPECT_GE(child->start_ns, root->start_ns);
  EXPECT_LE(child->start_ns + child->duration_ns,
            root->start_ns + root->duration_ns);
  // All on one thread track.
  EXPECT_EQ(child->tid, root->tid);
  EXPECT_EQ(grandchild->tid, root->tid);
}

TEST(SpanTest, RingWraparoundKeepsNewestAndCountsDrops) {
  SpanCollector collector(8);
  ScopedCollector scoped(&collector);
  for (int i = 0; i < 20; ++i) {
    Span span("wrap");
    (void)span;
  }
  EXPECT_EQ(collector.recorded(), 20u);
  EXPECT_EQ(collector.dropped(), 12u);
  const std::vector<SpanRecord> spans = collector.Snapshot();
  ASSERT_EQ(spans.size(), 8u);
  // Oldest first: ids strictly increase and end at the newest span.
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LT(spans[i - 1].id, spans[i].id);
  }
}

TEST(SpanTest, RootSamplingTracesWholeTreeEveryNth) {
  SpanCollector collector(64, /*sample_every=*/3);
  ScopedCollector scoped(&collector);
  for (int i = 0; i < 9; ++i) {
    Span root("sampled_root");
    Span child("sampled_child");
    (void)root;
    (void)child;
  }
  // Roots 0, 3, 6 are traced, each with its child riding along.
  EXPECT_EQ(collector.roots_seen(), 9u);
  EXPECT_EQ(collector.recorded(), 6u);
  const std::vector<SpanRecord> spans = collector.Snapshot();
  size_t roots = 0, children = 0;
  for (const SpanRecord& span : spans) {
    if (span.parent_id == 0) {
      ++roots;
    } else {
      ++children;
    }
  }
  EXPECT_EQ(roots, 3u);
  EXPECT_EQ(children, 3u);
}

TEST(SpanTest, SampleEveryZeroDisablesRecordingButTracksDepth) {
  SpanCollector collector(64, /*sample_every=*/0);
  ScopedCollector scoped(&collector);
  {
    Span root("r");
    Span child("c");
    (void)root;
    (void)child;
  }
  EXPECT_EQ(collector.recorded(), 0u);
  // A fresh sampling collector still sees balanced depth afterwards: a
  // new root decides for itself.
  SpanCollector second(64, /*sample_every=*/1);
  SetSpanCollector(&second);
  {
    Span root("recorded");
    (void)root;
  }
  SetSpanCollector(nullptr);
  EXPECT_EQ(second.recorded(), 1u);
  const std::vector<SpanRecord> spans = second.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].parent_id, 0u);
}

TEST(SpanTest, ThreadsGetDistinctTracks) {
  SpanCollector collector(64);
  ScopedCollector scoped(&collector);
  {
    Span main_span("main_thread");
    (void)main_span;
  }
  std::thread worker([] {
    Span worker_span("worker_thread");
    (void)worker_span;
  });
  worker.join();
  const std::vector<SpanRecord> spans = collector.Snapshot();
  const SpanRecord* main_span = FindByName(spans, "main_thread");
  const SpanRecord* worker_span = FindByName(spans, "worker_thread");
  ASSERT_NE(main_span, nullptr);
  ASSERT_NE(worker_span, nullptr);
  EXPECT_NE(main_span->tid, worker_span->tid);
}

TEST(SpanTest, CollectorExportsRecordedAndDroppedCounters) {
  MetricsRegistry registry;
  SpanCollector collector(4, 1, &registry);
  ScopedCollector scoped(&collector);
  for (int i = 0; i < 6; ++i) {
    Span span("counted");
    (void)span;
  }
  const Counter* recorded =
      registry.FindCounter("latest_spans_recorded_total");
  const Counter* dropped = registry.FindCounter("latest_spans_dropped_total");
  ASSERT_NE(recorded, nullptr);
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(recorded->value(), 6u);
  EXPECT_EQ(dropped->value(), 2u);
}

TEST(SpanTest, TraceContextLinksAcrossThreads) {
  SpanCollector collector(64);
  ScopedCollector scoped(&collector);
  TraceContext handoff;
  {
    Span root("ctx_root");
    handoff = root.context();
    EXPECT_TRUE(handoff.sampled);
    EXPECT_NE(handoff.span_id, 0u);
    EXPECT_NE(handoff.trace_id, 0u);
    // The continuation runs on another thread while the parent is live.
    std::thread worker([&handoff] {
      Span continued("ctx_continued", handoff);
      Span nested("ctx_nested");
      (void)continued;
      (void)nested;
    });
    worker.join();
  }
  const std::vector<SpanRecord> spans = collector.Snapshot();
  const SpanRecord* root = FindByName(spans, "ctx_root");
  const SpanRecord* continued = FindByName(spans, "ctx_continued");
  const SpanRecord* nested = FindByName(spans, "ctx_nested");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(continued, nullptr);
  ASSERT_NE(nested, nullptr);
  // Linkage crosses the thread boundary: parent ids chain root →
  // continued → nested while the tids differ.
  EXPECT_EQ(continued->parent_id, root->id);
  EXPECT_EQ(nested->parent_id, continued->id);
  EXPECT_NE(continued->tid, root->tid);
  EXPECT_EQ(nested->tid, continued->tid);
  // One trace id spans the whole tree.
  EXPECT_EQ(root->trace_id, handoff.trace_id);
  EXPECT_EQ(continued->trace_id, handoff.trace_id);
  EXPECT_EQ(nested->trace_id, handoff.trace_id);
}

TEST(SpanTest, UnsampledContextSuppressesWholeSubtree) {
  SpanCollector collector(64);
  ScopedCollector scoped(&collector);
  // A continuation handle whose originating tree was not sampled: the
  // continued span and everything nested under it stay dark, even
  // though the collector itself records everything.
  const TraceContext unsampled{/*trace_id=*/99, /*span_id=*/0,
                               /*sampled=*/false};
  {
    Span continued("dark_continued", unsampled);
    LATEST_SPAN("dark_nested");
  }
  EXPECT_EQ(collector.recorded(), 0u);
  // The thread recovers: the next plain root records normally.
  {
    Span root("light_root");
    (void)root;
  }
  EXPECT_EQ(collector.recorded(), 1u);
}

// The serve plane's flush-time idiom: the batch thread opens a real
// linked span under a pre-allocated root id, and the IO thread later
// synthesizes the root + stage records via Record(). The result must
// read back as one tree crossing both threads.
TEST(SpanTest, SynthesizedRecordsJoinLinkedTree) {
  SpanCollector collector(64);
  ScopedCollector scoped(&collector);
  const uint64_t trace_id = 0xabcdef01u;
  const uint64_t root_id = collector.NextId();

  std::thread batch_thread([&] {
    Span module_run("module_run",
                    TraceContext{trace_id, root_id, /*sampled=*/true});
    (void)module_run;
  });
  batch_thread.join();

  // IO thread (here: the test main thread) synthesizes the root and one
  // stage child after the fact.
  SpanRecord root;
  root.name = "serve_request";
  root.id = root_id;
  root.parent_id = 0;
  root.trace_id = trace_id;
  root.tid = CurrentThreadTid();
  root.start_ns = 0;
  root.duration_ns = 1000;
  collector.Record(root);
  SpanRecord stage;
  stage.name = "queue_wait";
  stage.id = collector.NextId();
  stage.parent_id = root_id;
  stage.trace_id = trace_id;
  stage.tid = CurrentThreadTid();
  stage.start_ns = 100;
  stage.duration_ns = 200;
  collector.Record(stage);

  const std::vector<SpanRecord> spans = collector.Snapshot();
  const SpanRecord* run = FindByName(spans, "module_run");
  const SpanRecord* synthesized_root = FindByName(spans, "serve_request");
  const SpanRecord* wait = FindByName(spans, "queue_wait");
  ASSERT_NE(run, nullptr);
  ASSERT_NE(synthesized_root, nullptr);
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(run->parent_id, root_id);
  EXPECT_EQ(wait->parent_id, root_id);
  EXPECT_EQ(run->trace_id, trace_id);
  EXPECT_EQ(wait->trace_id, trace_id);
  // The tree crosses threads: the real linked span ran on the batch
  // thread, the synthesized records on this one.
  EXPECT_NE(run->tid, synthesized_root->tid);
}

// Minimal structural JSON scan: brackets balance outside strings, and
// strings/escapes are well-formed. Enough to catch malformed exports
// without a JSON library.
void ExpectBalancedJson(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        ++depth;
        break;
      case '}':
      case ']':
        --depth;
        ASSERT_GE(depth, 0);
        break;
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

TEST(TraceExportTest, ChromeTraceEventStructure) {
  SpanCollector collector(64);
  {
    ScopedCollector scoped(&collector);
    Span root("export_root");
    Span child("export \"child\"\\");
    (void)root;
    (void)child;
  }
  const std::string json = TraceEventJson(collector, "test_process");
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"export_root\""), std::string::npos);
  // Name escaping: the quote and backslash must be escaped in the output.
  EXPECT_NE(json.find("export \\\"child\\\"\\\\"), std::string::npos);
  // Process metadata names the process.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"test_process\""), std::string::npos);
}

TEST(TraceExportTest, JsonEscaperEscapesQuoteBackslashNewlineAndControls) {
  std::string out = "[";
  AppendJsonEscaped("quote\" backslash\\ newline\n tab\t ctrl\x01", &out);
  EXPECT_EQ(out,
            "[quote\\\" backslash\\\\ newline\\n tab\\u0009 ctrl\\u0001");
  out.clear();
  AppendJsonEscaped("plain #tag", &out);
  EXPECT_EQ(out, "plain #tag");
}

TEST(TraceExportTest, WriteTraceEventFileRoundTrips) {
  SpanCollector collector(16);
  {
    ScopedCollector scoped(&collector);
    Span span("file_span");
    (void)span;
  }
  const std::string path =
      ::testing::TempDir() + "/span_trace_test_trace.json";
  const util::Status status = WriteTraceEventFile(collector, path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(f);
  EXPECT_EQ(contents, TraceEventJson(collector));
  std::remove(path.c_str());
}

TEST(TraceExportTest, WriteToUnwritablePathFails) {
  SpanCollector collector(4);
  const util::Status status =
      WriteTraceEventFile(collector, "/nonexistent_dir/trace.json");
  EXPECT_FALSE(status.ok());
}

// End-to-end: a live module stream produces the lifecycle span tree the
// introspection docs promise — ingest with store/estimator children,
// query with ground_truth/estimate/tree_train children.
TEST(SpanModuleIntegrationTest, ModuleStreamEmitsLifecycleSpans) {
  SpanCollector collector(1 << 14);
  ScopedCollector scoped(&collector);

  core::LatestConfig config;
  config.bounds = testing_support::kTestBounds;
  config.window.window_length_ms = 1000;
  config.window.num_slices = 10;
  config.pretrain_queries = 20;
  config.monitor_window = 8;
  config.estimator.reservoir_capacity = 200;
  config.alpha = 0.0;
  auto created = core::LatestModule::Create(config);
  ASSERT_TRUE(created.ok());
  auto module = std::move(created).value();

  const auto objects =
      testing_support::MakeClusteredObjects(3000, 7, /*duration=*/3000);
  util::Rng rng(11);
  for (size_t i = 0; i < objects.size(); ++i) {
    module->OnObject(objects[i]);
    if (objects[i].timestamp >= 1000 && i % 10 == 0) {
      stream::Query q;
      q.keywords = {static_cast<stream::KeywordId>(rng.NextBounded(50))};
      q.timestamp = objects[i].timestamp;
      module->OnQuery(q);
    }
  }

  const std::vector<SpanRecord> spans = collector.Snapshot();
  std::map<std::string, const SpanRecord*> by_name;
  std::map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& span : spans) {
    by_name.emplace(span.name, &span);
    by_id.emplace(span.id, &span);
  }
  for (const char* expected :
       {"ingest", "query", "ground_truth", "estimate", "tree_train",
        "store_insert", "estimator_insert", "slice_seal", "evict"}) {
    EXPECT_TRUE(by_name.count(expected) == 1)
        << "missing span: " << expected;
  }

  // Structural check: every ground_truth/estimate span is a child of a
  // query span; store_insert children belong to ingest roots.
  for (const SpanRecord& span : spans) {
    const std::string name = span.name;
    if (name == "ground_truth" || name == "estimate" ||
        name == "tree_train") {
      auto parent = by_id.find(span.parent_id);
      if (parent != by_id.end()) {
        EXPECT_STREQ(parent->second->name, "query") << "child " << name;
      }
    } else if (name == "store_insert" || name == "estimator_insert") {
      auto parent = by_id.find(span.parent_id);
      if (parent != by_id.end()) {
        EXPECT_STREQ(parent->second->name, "ingest") << "child " << name;
      }
    }
  }

  // The export of a real stream stays structurally valid JSON.
  ExpectBalancedJson(TraceEventJson(collector));
}

}  // namespace
}  // namespace latest::obs
