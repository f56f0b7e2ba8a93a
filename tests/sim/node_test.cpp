// Simulator semantics: stream ordering, events, copy engines, functional
// execution, deadlock detection and the simulated clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/node.hpp"
#include "sim/presets.hpp"

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

} // namespace
