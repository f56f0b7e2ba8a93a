// Timeline tracing: the observability feature used to diagnose scheduling
// (DESIGN.md §7) must record processed commands with correct kinds, ordering
// and durations.
#include <gtest/gtest.h>

#include "sim/node.hpp"
#include "sim/presets.hpp"

namespace {

TEST(TraceTest, RecordsKernelsAndCopiesInSimulatedOrder) {
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 2));
  node.enable_trace(true);
  sim::Buffer* buf = node.malloc_device(0, 1024);
  std::vector<std::byte> host(1024);
  node.memcpy_h2d(node.default_stream(0), buf, 0, host.data(), 1024);
  sim::LaunchStats st;
  st.blocks = 8;
  st.label = "traced_kernel";
  node.launch(node.default_stream(0), st, [] {});
  node.synchronize();

  const auto& trace = node.trace();
  ASSERT_GE(trace.size(), 2u);
  EXPECT_EQ(trace[0].kind, 'C');
  EXPECT_EQ(trace[1].kind, 'K');
  EXPECT_EQ(trace[1].label, "traced_kernel");
  EXPECT_GE(trace[1].start, trace[0].end); // same stream: ordered
  EXPECT_GT(trace[0].end, trace[0].start);
  EXPECT_EQ(trace[0].device, 0);
}

TEST(TraceTest, DisabledByDefaultAndClearable) {
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 1));
  node.host_func(node.default_stream(0), [] {});
  node.synchronize();
  EXPECT_TRUE(node.trace().empty());

  node.enable_trace(true);
  node.host_func(node.default_stream(0), [] {});
  node.synchronize();
  EXPECT_EQ(node.trace().size(), 1u);
  EXPECT_EQ(node.trace()[0].kind, 'H');
  node.clear_trace();
  EXPECT_TRUE(node.trace().empty());
}

TEST(TraceTest, CopyLabelsNameEndpointsAndBytes) {
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 2));
  node.enable_trace(true);
  sim::Buffer* a = node.malloc_device(0, 256);
  sim::Buffer* b = node.malloc_device(1, 256);
  node.memcpy_p2p(node.default_stream(1), b, 0, a, 0, 256);
  node.synchronize();
  ASSERT_EQ(node.trace().size(), 1u);
  EXPECT_EQ(node.trace()[0].label, "0->1 256B");
}

TEST(TraceTest, ObserverAloneSeesKernelAndCopyLabels) {
  // A kernel's label is kept while tracing or an observer is on at enqueue;
  // copy labels are made at drain from the command itself.
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 2),
                 sim::ExecMode::TimingOnly);
  sim::Buffer* a = node.malloc_device(0, 256);
  sim::Buffer* b = node.malloc_device(1, 256);
  sim::LaunchStats st;
  st.label = "a kernel label longer than the small-string buffer";
  const sim::StreamId s0 = node.default_stream(0);
  node.launch(s0, st, nullptr); // enqueued unobserved: no label kept
  std::vector<sim::TraceEvent> seen;
  node.set_exec_observer([&](const sim::TraceEvent& te) { seen.push_back(te); });
  node.launch(s0, st, nullptr);
  node.memcpy_p2p(s0, b, 0, a, 0, 256);
  node.synchronize();
  EXPECT_TRUE(node.trace().empty());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].kind, 'K');
  EXPECT_EQ(seen[0].label, "");
  EXPECT_EQ(seen[1].kind, 'K');
  EXPECT_EQ(seen[1].label, st.label);
  EXPECT_EQ(seen[2].kind, 'C');
  EXPECT_EQ(seen[2].label, "0->1 256B");
}

} // namespace
