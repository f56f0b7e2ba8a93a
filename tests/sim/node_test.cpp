// Simulator semantics: stream ordering, events, copy engines, functional
// execution, deadlock detection and the simulated clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/node.hpp"
#include "sim/presets.hpp"
#include "sim/topology.hpp"

// Counts every allocation in this test binary, so a test can assert that a
// section allocates nothing.
namespace {
std::atomic<std::size_t> g_allocations{0};
} // namespace

void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) {
    return p;
  }
  throw std::bad_alloc();
}
// The matching deletes keep allocation and release paired for ASan.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

sim::Node make_node(int devices, sim::ExecMode mode = sim::ExecMode::Functional) {
  return sim::Node(sim::homogeneous_node(sim::gtx780(), devices), mode);
}

TEST(NodeTest, ConstructionAndSpecs) {
  sim::Node node = make_node(4);
  EXPECT_EQ(node.device_count(), 4);
  EXPECT_EQ(node.spec(0).name, "GTX 780");
  EXPECT_EQ(node.spec(3).arch, sim::Arch::Kepler);
  EXPECT_TRUE(node.functional());
}

TEST(NodeTest, RejectsEmptyDeviceList) {
  EXPECT_THROW(sim::Node(std::vector<sim::DeviceSpec>{}), std::invalid_argument);
}

TEST(NodeTest, HostRoundTripThroughDevice) {
  sim::Node node = make_node(1);
  std::vector<int> src(1024), dst(1024, 0);
  for (int i = 0; i < 1024; ++i) {
    src[static_cast<std::size_t>(i)] = i * 3;
  }
  sim::Buffer* buf = node.malloc_device(0, 1024 * sizeof(int));
  const sim::StreamId s = node.default_stream(0);
  node.memcpy_h2d(s, buf, 0, src.data(), 1024 * sizeof(int));
  node.memcpy_d2h(s, dst.data(), buf, 0, 1024 * sizeof(int));
  node.synchronize();
  EXPECT_EQ(src, dst);
}

TEST(NodeTest, KernelBodyRunsInFunctionalMode) {
  sim::Node node = make_node(1);
  sim::Buffer* buf = node.malloc_device(0, 16 * sizeof(float));
  bool ran = false;
  sim::LaunchStats st;
  st.blocks = 4;
  node.launch(node.default_stream(0), st, [&] {
    ran = true;
    buf->as<float>()[0] = 42.0f;
  });
  node.synchronize();
  EXPECT_TRUE(ran);
  EXPECT_EQ(buf->as<float>()[0], 42.0f);
  EXPECT_EQ(node.stats().kernels_launched, 1u);
}

TEST(NodeTest, KernelBodySkippedInTimingOnlyMode) {
  sim::Node node = make_node(1, sim::ExecMode::TimingOnly);
  bool ran = false;
  sim::LaunchStats st;
  st.blocks = 128;
  st.flops = 1'000'000'000;
  node.launch(node.default_stream(0), st, [&] { ran = true; });
  node.synchronize();
  EXPECT_FALSE(ran);
  EXPECT_EQ(node.stats().kernels_launched, 1u);
  EXPECT_GT(node.now_ms(), 0.0);
}

TEST(NodeTest, StreamCommandsExecuteInOrder) {
  sim::Node node = make_node(1);
  std::vector<int> order;
  const sim::StreamId s = node.default_stream(0);
  for (int i = 0; i < 5; ++i) {
    node.host_func(s, [&order, i] { order.push_back(i); });
  }
  node.synchronize();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(NodeTest, EventOrdersAcrossStreams) {
  sim::Node node = make_node(2);
  const sim::StreamId s0 = node.default_stream(0);
  const sim::StreamId s1 = node.default_stream(1);
  std::vector<int> order;

  // Stream 0 does slow work, then records; stream 1 waits before running.
  sim::LaunchStats heavy;
  heavy.blocks = 1024;
  heavy.flops = 1'000'000'000'000ull;
  node.launch(s0, heavy, [&] { order.push_back(0); });
  const sim::EventId ev = node.create_event();
  node.record_event(ev, s0);
  node.wait_event(s1, ev);
  node.host_func(s1, [&] { order.push_back(1); });
  node.synchronize();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(NodeTest, WaitOnNeverRecordedEventIsNoOp) {
  sim::Node node = make_node(1);
  const sim::EventId ev = node.create_event();
  node.wait_event(node.default_stream(0), ev); // CUDA semantics: no-op
  bool ran = false;
  node.host_func(node.default_stream(0), [&] { ran = true; });
  node.synchronize();
  EXPECT_TRUE(ran);
}

TEST(NodeTest, FutureGenerationWaitDeadlocksWithoutRecord) {
  sim::Node node = make_node(1);
  const sim::EventId ev = node.create_event();
  node.wait_event_generation(node.default_stream(0), ev, 1);
  node.host_func(node.default_stream(0), [] {});
  EXPECT_THROW(node.synchronize(), std::runtime_error);
}

TEST(NodeTest, FutureGenerationWaitResolvesWhenRecordArrivesLater) {
  sim::Node node = make_node(2);
  const sim::EventId ev = node.create_event();
  std::vector<int> order;
  // Wait enqueued before the matching record exists (one device's commands
  // issued ahead of the device that records, which the strict API is for).
  node.wait_event_generation(node.default_stream(1), ev, 1);
  node.host_func(node.default_stream(1), [&] { order.push_back(1); });
  sim::LaunchStats heavy;
  heavy.blocks = 256;
  heavy.flops = 500'000'000'000ull;
  node.launch(node.default_stream(0), heavy, [&] { order.push_back(0); });
  node.record_event(ev, node.default_stream(0));
  node.synchronize();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(NodeTest, PeerCopyMovesDataBetweenDevices) {
  sim::Node node = make_node(2);
  sim::Buffer* a = node.malloc_device(0, 256);
  sim::Buffer* b = node.malloc_device(1, 256);
  std::vector<std::byte> host(256, std::byte{7});
  node.memcpy_h2d(node.default_stream(0), a, 0, host.data(), 256);
  const sim::EventId ev = node.create_event();
  node.record_event(ev, node.default_stream(0));
  node.wait_event(node.default_stream(1), ev);
  node.memcpy_p2p(node.default_stream(1), b, 0, a, 0, 256);
  node.synchronize();
  EXPECT_EQ(b->data()[100], std::byte{7});
  EXPECT_EQ(node.stats().bytes_p2p, 256u);
  EXPECT_EQ(node.stats().bytes_h2d, 256u);
}

TEST(NodeTest, SameDirectionCopiesSerializeOnTheSharedHostLink) {
  sim::Node node = make_node(1, sim::ExecMode::TimingOnly);
  sim::Buffer* buf = node.malloc_device(0, 400 << 20);
  const std::size_t chunk = 100 << 20; // ~8.3 ms at 12 GB/s
  std::vector<std::byte> dummy(1);
  // Four H2D copies on four streams: despite two copy engines, all four
  // cross the one PCIe uplink of this device's bus => ~4x serialization.
  std::vector<sim::StreamId> streams;
  for (int i = 0; i < 4; ++i) {
    streams.push_back(node.create_stream(0));
  }
  for (int i = 0; i < 4; ++i) {
    node.memcpy_h2d(streams[static_cast<std::size_t>(i)], buf,
                    static_cast<std::size_t>(i) * chunk, dummy.data(), chunk);
  }
  node.synchronize();
  const double total_ms = node.now_ms();
  const double one_ms = 1e3 * static_cast<double>(chunk) / (12.0 * 1e9);
  EXPECT_GT(total_ms, 3.8 * one_ms);
  EXPECT_LT(total_ms, 4.4 * one_ms);
  EXPECT_NEAR(node.stats().host_uplink_busy_seconds, 4e-3 * one_ms, 1e-4);
}

TEST(NodeTest, OppositeDirectionCopiesOverlapOnTheDuplexHostLink) {
  sim::Node node = make_node(1, sim::ExecMode::TimingOnly);
  sim::Buffer* buf = node.malloc_device(0, 400 << 20);
  const std::size_t chunk = 100 << 20;
  std::vector<std::byte> up(1), down(1);
  // One H2D and one D2H: uplink and downlink are independent directions of
  // the bus's host connection and the device has two copy engines, so the
  // transfers overlap almost completely.
  node.memcpy_h2d(node.create_stream(0), buf, 0, up.data(), chunk);
  node.memcpy_d2h(node.create_stream(0), down.data(), buf, chunk, chunk);
  node.synchronize();
  const double total_ms = node.now_ms();
  const double one_ms = 1e3 * static_cast<double>(chunk) / (12.0 * 1e9);
  EXPECT_LT(total_ms, 1.2 * one_ms);
  EXPECT_GT(node.stats().host_downlink_busy_seconds, 0.0);
}

TEST(NodeTest, KernelAndCopyOverlapOnSeparateEngines) {
  sim::Node node = make_node(1, sim::ExecMode::TimingOnly);
  sim::Buffer* buf = node.malloc_device(0, 120 << 20);
  std::vector<std::byte> dummy(1);
  const sim::StreamId s0 = node.default_stream(0);
  const sim::StreamId s1 = node.create_stream(0);
  sim::LaunchStats heavy;
  heavy.blocks = 1024;
  heavy.flops = 18'000'000'000ull; // ~9.6 ms on a GTX 780 (generic eff)
  node.launch(s0, heavy, nullptr);
  node.memcpy_h2d(s1, buf, 0, dummy.data(), 120 << 20); // ~10 ms
  node.synchronize();
  // Overlapped: total well below the 19+ ms serial sum.
  EXPECT_LT(node.now_ms(), 14.0);
  EXPECT_GT(node.now_ms(), 8.0);
}

TEST(NodeTest, SimulatedTimeIndependentOfDrainPoints) {
  auto run = [](bool sync_midway) {
    sim::Node node = make_node(2, sim::ExecMode::TimingOnly);
    sim::LaunchStats st;
    st.blocks = 512;
    st.flops = 1'000'000'000'000ull;
    node.launch(node.default_stream(0), st, nullptr);
    if (sync_midway) {
      node.synchronize();
    }
    node.launch(node.default_stream(1), st, nullptr);
    node.synchronize();
    return node.now_ms();
  };
  // Draining early must not change the simulated completion time of work
  // that was already enqueued... but a mid-way sync gates the *second*
  // launch's issue time, which is the documented host-clock semantics.
  EXPECT_GT(run(true), run(false));
}

TEST(NodeTest, MemsetZeroesBuffer) {
  sim::Node node = make_node(1);
  sim::Buffer* buf = node.malloc_device(0, 64);
  std::vector<std::byte> host(64, std::byte{9});
  node.memcpy_h2d(node.default_stream(0), buf, 0, host.data(), 64);
  node.memset_device(node.default_stream(0), buf, 16, 0, 32);
  node.synchronize();
  EXPECT_EQ(buf->data()[15], std::byte{9});
  EXPECT_EQ(buf->data()[16], std::byte{0});
  EXPECT_EQ(buf->data()[47], std::byte{0});
  EXPECT_EQ(buf->data()[48], std::byte{9});
}

TEST(NodeTest, Strided2DCopies) {
  sim::Node node = make_node(1);
  // Host matrix 4x8 bytes, copy middle 2x4 region into a 2x4 device buffer.
  std::vector<std::byte> host(32);
  for (int i = 0; i < 32; ++i) {
    host[static_cast<std::size_t>(i)] = std::byte(i);
  }
  sim::Buffer* buf = node.malloc_device(0, 8);
  node.memcpy_2d_h2d(node.default_stream(0), buf, 0, /*dst_pitch=*/4,
                     host.data() + 8 + 2, /*src_pitch=*/8, /*row_bytes=*/4,
                     /*height=*/2);
  node.synchronize();
  EXPECT_EQ(buf->data()[0], std::byte(10));
  EXPECT_EQ(buf->data()[3], std::byte(13));
  EXPECT_EQ(buf->data()[4], std::byte(18));
  EXPECT_EQ(buf->data()[7], std::byte(21));
}

TEST(NodeTest, HostStagedCopyIsSlowerThanDirectPeer) {
  sim::Node direct = make_node(2, sim::ExecMode::TimingOnly);
  sim::Node staged = make_node(2, sim::ExecMode::TimingOnly);
  const std::size_t bytes = 64 << 20;
  {
    sim::Buffer* a = direct.malloc_device(0, bytes);
    sim::Buffer* b = direct.malloc_device(1, bytes);
    direct.memcpy_p2p(direct.default_stream(1), b, 0, a, 0, bytes);
    direct.synchronize();
  }
  {
    sim::Buffer* a = staged.malloc_device(0, bytes);
    sim::Buffer* b = staged.malloc_device(1, bytes);
    staged.memcpy_p2p_host_staged(staged.default_stream(1), b, 0, a, 0, bytes);
    staged.synchronize();
  }
  EXPECT_GT(staged.now_ms(), 1.5 * direct.now_ms());
  EXPECT_EQ(staged.stats().bytes_host_staged, bytes);
}

TEST(NodeTest, StatsBytesBetweenMatrix) {
  sim::Node node = make_node(2);
  sim::Buffer* a = node.malloc_device(0, 128);
  sim::Buffer* b = node.malloc_device(1, 128);
  std::vector<std::byte> host(128);
  node.memcpy_h2d(node.default_stream(0), a, 0, host.data(), 128);
  node.memcpy_p2p(node.default_stream(1), b, 0, a, 0, 128);
  node.memcpy_d2h(node.default_stream(1), host.data(), b, 0, 64);
  node.synchronize();
  const auto& m = node.stats().bytes_between;
  EXPECT_EQ(m[0][1], 128u); // host -> dev0
  EXPECT_EQ(m[1][2], 128u); // dev0 -> dev1
  EXPECT_EQ(m[2][0], 64u);  // dev1 -> host
}

TEST(NodeTest, AdvanceHostGatesSubsequentCommands) {
  sim::Node node = make_node(1, sim::ExecMode::TimingOnly);
  node.advance_host_us(5000);
  sim::LaunchStats st;
  st.blocks = 16;
  node.launch(node.default_stream(0), st, nullptr);
  node.synchronize();
  EXPECT_GE(node.now_ms(), 5.0);
}

TEST(NodeTest, ResetStatsClearsCounters) {
  sim::Node node = make_node(1);
  sim::LaunchStats st;
  node.launch(node.default_stream(0), st, [] {});
  node.synchronize();
  EXPECT_EQ(node.stats().kernels_launched, 1u);
  node.reset_stats();
  EXPECT_EQ(node.stats().kernels_launched, 0u);
  EXPECT_EQ(node.stats().bytes_between.size(), 2u);
}

TEST(NodeTest, EventGenerationsResolveIndependently) {
  sim::Node node = make_node(2);
  const sim::EventId ev = node.create_event();
  std::vector<int> order;
  sim::LaunchStats slow;
  slow.blocks = 512;
  slow.flops = 400'000'000'000ull;
  // Two record generations on stream 0; stream 1 waits for each in turn.
  node.launch(node.default_stream(0), slow, [&] { order.push_back(1); });
  node.record_event(ev, node.default_stream(0));
  node.wait_event(node.default_stream(1), ev); // waits generation 1
  node.host_func(node.default_stream(1), [&] { order.push_back(2); });
  node.launch(node.default_stream(0), slow, [&] { order.push_back(3); });
  node.record_event(ev, node.default_stream(0));
  node.wait_event_generation(node.default_stream(1), ev, 2);
  node.host_func(node.default_stream(1), [&] { order.push_back(4); });
  node.synchronize();
  // Dependency order (not total order): each wait resolves against its own
  // generation.
  auto pos = [&](int v) {
    return std::find(order.begin(), order.end(), v) - order.begin();
  };
  ASSERT_EQ(order.size(), 4u);
  EXPECT_LT(pos(1), pos(2)); // "2" waited for generation 1
  EXPECT_LT(pos(3), pos(4)); // "4" waited for generation 2
  EXPECT_LT(pos(2), pos(4));
}

TEST(NodeTest, DeadlockDiagnosticNamesBlockedStreams) {
  sim::Node node = make_node(1);
  const sim::EventId ev = node.create_event();
  node.wait_event_generation(node.default_stream(0), ev, 1);
  try {
    node.synchronize();
    FAIL() << "expected deadlock";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("stream"), std::string::npos);
  }
}

TEST(NodeTest, GenerationZeroWaitIsRejectedAtEnqueue) {
  sim::Node node = make_node(1);
  const sim::EventId ev = node.create_event();
  EXPECT_THROW(node.wait_event_generation(node.default_stream(0), ev, 0),
               std::invalid_argument);
  node.host_func(node.default_stream(0), [] {});
  EXPECT_NO_THROW(node.synchronize()); // nothing was enqueued by the throw
}

// First trace entry of `kind` on `stream`, in processing order.
const sim::TraceEvent& traced(const sim::Node& node, sim::StreamId stream,
                              char kind, int nth = 0) {
  for (const sim::TraceEvent& te : node.trace()) {
    if (te.stream == stream && te.kind == kind && nth-- == 0) {
      return te;
    }
  }
  throw std::logic_error("no such trace entry");
}

TEST(NodeTest, WaitOnSecondGenerationParksUntilThatRecord) {
  sim::Node node = make_node(2, sim::ExecMode::TimingOnly);
  node.enable_trace(true);
  const sim::StreamId s0 = node.default_stream(0);
  const sim::StreamId s1 = node.default_stream(1);
  const sim::EventId ev = node.create_event();
  sim::LaunchStats slow;
  slow.blocks = 512;
  slow.flops = 400'000'000'000ull;
  // The wait is enqueued before either record exists, so it stays parked
  // while generation 1 is recorded and is woken only by generation 2.
  node.wait_event_generation(s1, ev, 2);
  node.host_func(s1, nullptr);
  node.launch(s0, slow, nullptr);
  node.record_event(ev, s0);
  node.launch(s0, slow, nullptr);
  node.record_event(ev, s0);
  node.synchronize();
  const double gen1 = traced(node, s0, 'R', 0).end;
  const double gen2 = traced(node, s0, 'R', 1).end;
  ASSERT_LT(gen1, gen2);
  EXPECT_EQ(traced(node, s1, 'W').start, gen2);
  EXPECT_EQ(traced(node, s1, 'H').start, gen2);
}

TEST(NodeTest, StreamsWaitingOnDifferentGenerationsResolveSeparately) {
  sim::Node node = make_node(3, sim::ExecMode::TimingOnly);
  node.enable_trace(true);
  const sim::StreamId s0 = node.default_stream(0);
  const sim::StreamId s1 = node.default_stream(1);
  const sim::StreamId s2 = node.default_stream(2);
  const sim::EventId ev = node.create_event();
  sim::LaunchStats slow;
  slow.blocks = 512;
  slow.flops = 400'000'000'000ull;
  node.wait_event_generation(s2, ev, 2); // parked behind generation 2
  node.wait_event_generation(s1, ev, 1); // parked behind generation 1
  node.launch(s0, slow, nullptr);
  node.record_event(ev, s0);
  node.launch(s0, slow, nullptr);
  node.record_event(ev, s0);
  node.synchronize();
  EXPECT_EQ(traced(node, s1, 'W').start, traced(node, s0, 'R', 0).end);
  EXPECT_EQ(traced(node, s2, 'W').start, traced(node, s0, 'R', 1).end);
  EXPECT_LT(traced(node, s1, 'W').start, traced(node, s2, 'W').start);
}

TEST(NodeTest, ThrowingBodyLeavesTheRestDrainableWithUnchangedTimestamps) {
  // Stream 1 is parked on an event that stream 0 records after a host
  // function; when that function throws, the next synchronize() must pick up
  // exactly where the interrupted drain stopped.
  auto run = [](bool throw_once) {
    sim::Node node = make_node(2);
    node.enable_trace(true);
    const sim::StreamId s0 = node.default_stream(0);
    const sim::StreamId s1 = node.default_stream(1);
    const sim::EventId ev = node.create_event();
    sim::LaunchStats heavy;
    heavy.blocks = 256;
    heavy.flops = 100'000'000'000ull;
    int ran = 0;
    node.wait_event_generation(s1, ev, 1);
    node.host_func(s1, [&] { ++ran; });
    node.host_func(s0, [&] {
      if (throw_once) {
        throw std::runtime_error("body failed");
      }
    });
    node.launch(s0, heavy, [&] { ++ran; });
    node.record_event(ev, s0);
    node.launch(s1, heavy, [&] { ++ran; });
    if (throw_once) {
      EXPECT_THROW(node.synchronize(), std::runtime_error);
      EXPECT_EQ(ran, 0);
    }
    node.synchronize();
    EXPECT_EQ(ran, 3);
    std::vector<sim::TraceEvent> trace = node.trace();
    trace.push_back(sim::TraceEvent{-1, -1, 'T', node.now_ms(), 0, {}});
    return trace;
  };
  const std::vector<sim::TraceEvent> clean = run(false);
  const std::vector<sim::TraceEvent> interrupted = run(true);
  ASSERT_EQ(clean.size(), interrupted.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(clean[i].stream, interrupted[i].stream) << i;
    EXPECT_EQ(clean[i].kind, interrupted[i].kind) << i;
    EXPECT_EQ(clean[i].start, interrupted[i].start) << i;
    EXPECT_EQ(clean[i].end, interrupted[i].end) << i;
  }
}

TEST(NodeTest, TimingOnlyDrainAllocatesNothing) {
  sim::Node node = make_node(2, sim::ExecMode::TimingOnly);
  const sim::StreamId s0 = node.default_stream(0);
  const sim::StreamId s1 = node.default_stream(1);
  sim::Buffer* b0 = node.malloc_device(0, 1 << 20);
  sim::Buffer* b1 = node.malloc_device(1, 1 << 20);
  sim::LaunchStats st;
  st.blocks = 64;
  st.flops = 1'000'000'000ull;
  st.label = "a kernel label too long for the small-string buffer";
  // 40 iterations put 120 commands on each stream: several queue segments.
  const sim::EventId ev = node.create_events(160);
  auto round = [&](sim::EventId first) {
    for (int i = 0; i < 40; ++i) {
      node.launch(s0, st, nullptr);
      node.record_event(first + 2 * i, s0);
      node.wait_event(s1, first + 2 * i);
      node.memcpy_p2p(s1, b1, 0, b0, 0, 4096);
      node.record_event(first + 2 * i + 1, s1);
      node.wait_event_generation(s0, first + 2 * i + 1, 1);
    }
  };
  round(ev);
  node.synchronize(); // sizes the queues and the drain's heap
  // The counted window covers the enqueues too: a launch stores no label
  // while untraced, however long, and a queued command owns no heap memory.
  const std::size_t before = g_allocations.load();
  round(ev + 80);
  node.synchronize();
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(NodeDeathTest, CopiesOutsideTheirBuffersFailAtEnqueue) {
  // A copy's cost is fixed at enqueue, so that is where a bad one stops.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Node node = make_node(2, sim::ExecMode::TimingOnly);
  const sim::StreamId s = node.default_stream(0);
  sim::Buffer* a = node.malloc_device(0, 4096);
  sim::Buffer* b = node.malloc_device(1, 4096);
  std::byte host[1];
  EXPECT_DEATH(node.memcpy_p2p_host_staged(s, b, 0, a, 1, 4096), "");
  EXPECT_DEATH(node.memcpy_p2p_host_staged(s, b, 1, a, 0, 4096), "");
  // 2D: the last row ends at (height - 1) * pitch + row_bytes.
  EXPECT_DEATH(node.memcpy_2d_d2h(s, host, 0, a, 0, 1024, 1024, 5), "");
  EXPECT_DEATH(node.memcpy_2d_d2h(s, host, 0, a, 1, 1024, 1024, 4), "");
  EXPECT_DEATH(node.memcpy_2d_p2p(s, b, 0, 1024, a, 0, 2048, 1024, 3), "");
  EXPECT_DEATH(node.memcpy_2d_p2p(s, b, 0, 2048, a, 0, 1024, 1024, 3), "");
  // In range, up to the last byte: enqueued and drained.
  node.memcpy_p2p_host_staged(s, b, 0, a, 0, 4096);
  node.memcpy_2d_d2h(s, host, 0, a, 3072, 1024, 1, 1);
  node.memcpy_2d_p2p(s, b, 0, 1536, a, 0, 1536, 1024, 3);
  node.synchronize();
  EXPECT_EQ(node.stats().copies, 3u);
}

// --- Random command graphs ---------------------------------------------------
// Seeded graphs over every command kind, drained and digested: the digest
// pins the processing order and every simulated timestamp, so any change to
// the event loop that reorders commands or moves a time shows here.

// splitmix64: a fixed generator, so the pinned digests do not depend on the
// standard library's distributions.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }
};

struct Fnv {
  std::uint64_t h = 14695981039346656037ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ b[i]) * 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void event(const sim::TraceEvent& te) {
    u64(static_cast<std::uint64_t>(te.stream));
    u64(static_cast<unsigned char>(te.kind));
    f64(te.start);
    f64(te.end);
    bytes(te.label.data(), te.label.size());
  }
};

// Topology of graph config `c`: 2, 3 or 4 paired GPUs, or two 2-GPU nodes.
sim::Node random_graph_node(int c) {
  if (c == 3) {
    return sim::Node(sim::homogeneous_node(sim::titan_black(), 4),
                     sim::Topology::cluster(2, 2), sim::ExecMode::TimingOnly);
  }
  return sim::Node(sim::homogeneous_node(sim::titan_black(), c + 2),
                   sim::ExecMode::TimingOnly);
}

std::uint64_t random_graph_digest(int config, std::uint64_t seed) {
  Rng rng{seed * 4 + static_cast<std::uint64_t>(config)};
  sim::Node node = random_graph_node(config);
  const int devices = node.device_count();
  node.enable_trace(true);
  Fnv observed;
  node.set_exec_observer([&](const sim::TraceEvent& te) { observed.event(te); });

  std::vector<sim::StreamId> streams;
  std::vector<sim::Buffer*> bufs;
  constexpr std::size_t kBuf = std::size_t{1} << 22;
  for (int d = 0; d < devices; ++d) {
    streams.push_back(node.default_stream(d));
    for (int k = rng.below(3); k > 0; --k) {
      streams.push_back(node.create_stream(d));
    }
    bufs.push_back(node.malloc_device(d, kBuf));
  }
  const int nevents = 2 + rng.below(5);
  const sim::EventId ev0 = node.create_events(nevents);
  std::vector<std::uint64_t> recorded(static_cast<std::size_t>(nevents), 0);
  static std::byte host[1]; // TimingOnly: copy bodies never run

  auto stream = [&] { return streams[static_cast<std::size_t>(
                          rng.below(static_cast<int>(streams.size())))]; };
  auto buf = [&](int d) { return bufs[static_cast<std::size_t>(d)]; };
  auto dev_of = [&](sim::StreamId s) { return node.stream_device(s); };
  auto nbytes = [&] { return std::size_t{1} + rng.next() % kBuf; };
  auto record = [&](int e, sim::StreamId s) {
    node.record_event(ev0 + e, s);
    ++recorded[static_cast<std::size_t>(e)];
  };

  bool deadlocked = false;
  auto sync = [&] {
    try {
      node.synchronize();
    } catch (const std::runtime_error&) {
      deadlocked = true;
    }
  };

  const int ops = 30 + rng.below(90);
  for (int i = 0; i < ops && !deadlocked; ++i) {
    const sim::StreamId s = stream();
    const int d = dev_of(s);
    const int peer = rng.below(devices);
    const int e = rng.below(nevents);
    switch (rng.below(17)) {
    case 0:
    case 1:
    case 2: {
      sim::LaunchStats st;
      st.blocks = 1 + rng.next() % 1024;
      st.threads_per_block = 64u << rng.below(4);
      st.flops = rng.next() % (std::uint64_t{1} << 34);
      st.global_bytes_read = rng.next() % (std::uint64_t{1} << 26);
      st.global_bytes_written = rng.next() % (std::uint64_t{1} << 24);
      st.label = "k" + std::to_string(i);
      node.launch(s, st, nullptr);
      break;
    }
    case 3: node.memcpy_h2d(s, buf(d), 0, host, nbytes()); break;
    case 4: node.memcpy_d2h(s, host, buf(d), 0, nbytes()); break;
    case 5: node.memcpy_p2p(s, buf(peer), 0, buf(d), 0, nbytes()); break;
    case 6: node.memcpy_p2p_host_staged(s, buf(peer), 0, buf(d), 0, nbytes()); break;
    case 7:
      node.memcpy_2d_p2p(s, buf(peer), 0, 4096, buf(d), 0, 4096,
                         1 + rng.next() % 4096, 1 + rng.next() % 1024);
      break;
    case 8:
      node.stage_host_traffic(s, nbytes(), 1e-6 * static_cast<double>(rng.below(500)));
      break;
    case 9: node.memset_device(s, buf(d), 0, 0, nbytes()); break;
    case 10: node.advance_host_us(static_cast<double>(rng.below(80))); break;
    case 11:
    case 12: record(e, s); break; // re-records an event after its first use
    case 13: node.wait_event(s, ev0 + e); break;
    case 14:
      if (recorded[static_cast<std::size_t>(e)] > 0) {
        node.wait_event_generation(
            s, ev0 + e,
            1 + rng.next() % recorded[static_cast<std::size_t>(e)]);
      }
      break;
    case 15: {
      // Out-of-order enqueue: wait on the next generation, then record it
      // on another stream straight away (which cannot close a cycle).
      node.wait_event_generation(s, ev0 + e, recorded[static_cast<std::size_t>(e)] + 1);
      sim::StreamId r = stream();
      while (r == s) {
        r = stream();
      }
      record(e, r);
      break;
    }
    case 16: node.host_func(s, nullptr, static_cast<double>(rng.below(20))); break;
    }
    if (i == ops / 2) {
      sync();
    }
  }
  sync();

  Fnv digest;
  for (const sim::TraceEvent& te : node.trace()) {
    digest.event(te);
  }
  EXPECT_EQ(observed.h, digest.h) << "observer and trace disagree";
  const sim::SimStats& st = node.stats();
  digest.f64(st.host_uplink_busy_seconds);
  digest.f64(st.host_downlink_busy_seconds);
  digest.f64(st.socket_link_busy_seconds);
  digest.f64(st.nic_send_busy_seconds);
  digest.f64(st.nic_recv_busy_seconds);
  digest.f64(node.now_ms());
  digest.u64(deadlocked ? 1 : 0);
  return digest.h;
}

TEST(NodeTest, RandomCommandGraphTraceDigestsArePinned) {
  // One folded digest per topology over 75 seeds each (300 graphs), computed
  // with the original O(streams) scan scheduler.
  const std::uint64_t pinned[4] = {0xdf74aabc8da45249ull, 0xd6accf451e853d50ull,
                                   0x61ed05d6bc35d2a0ull, 0x3c94b3c23337af36ull};
  for (int config = 0; config < 4; ++config) {
    Fnv folded;
    for (std::uint64_t seed = 0; seed < 75; ++seed) {
      folded.u64(random_graph_digest(config, seed));
    }
    EXPECT_EQ(folded.h, pinned[config]) << "config " << config << ": 0x"
                                        << std::hex << folded.h;
  }
}

} // namespace
