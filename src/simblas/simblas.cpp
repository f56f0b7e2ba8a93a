#include "simblas/simblas.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <utility>

namespace simblas {

namespace {

/// LaunchStats for a tuned dense GEMM (flops dominate; efficiency per Table 4).
sim::LaunchStats gemm_stats(const sim::DeviceSpec& spec, std::size_t m,
                            std::size_t n, std::size_t k) {
  sim::LaunchStats st;
  st.label = "simblas::sgemm";
  st.blocks = std::max<std::uint64_t>(1, (m / 64) * (n / 64));
  st.threads_per_block = 256;
  st.flops = 2ull * m * n * k;
  st.global_bytes_read =
      (m * k + k * n) * sizeof(float); // tiled reuse: each operand ~once
  st.global_bytes_written = m * n * sizeof(float);
  st.flop_efficiency = spec.gemm_efficiency;
  return st;
}

sim::LaunchStats streaming_stats(const char* label, std::size_t reads,
                                 std::size_t writes, std::size_t flops,
                                 std::size_t n) {
  sim::LaunchStats st;
  st.label = label;
  st.blocks = std::max<std::uint64_t>(1, n / 256);
  st.threads_per_block = 256;
  st.flops = flops;
  st.global_bytes_read = reads;
  st.global_bytes_written = writes;
  return st;
}

/// Enqueues a routine's kernel. The body is made only on a functional node:
/// a TimingOnly node never runs it, and wrapping its captures would cost a
/// heap allocation per launch.
template <typename Body>
void launch(sim::Node& node, sim::StreamId stream, const sim::LaunchStats& st,
            Body&& body) {
  node.launch(stream, st,
              node.functional() ? std::function<void()>(std::forward<Body>(body))
                                : nullptr);
}

} // namespace

void sgemm(sim::Node& node, int device, sim::StreamId stream, std::size_t m,
           std::size_t n, std::size_t k, float alpha, const float* a,
           const float* b, float beta, float* c) {
  launch(node, stream, gemm_stats(node.spec(device), m, n, k),
         [=] {
           // Cache-friendly i-k-j loop.
           for (std::size_t i = 0; i < m; ++i) {
             float* ci = c + i * n;
             if (beta == 0.0f) {
               std::memset(ci, 0, n * sizeof(float));
             } else if (beta != 1.0f) {
               for (std::size_t j = 0; j < n; ++j) {
                 ci[j] *= beta;
               }
             }
             for (std::size_t p = 0; p < k; ++p) {
               const float aip = alpha * a[i * k + p];
               if (aip == 0.0f) {
                 continue;
               }
               const float* bp = b + p * n;
               for (std::size_t j = 0; j < n; ++j) {
                 ci[j] += aip * bp[j];
               }
             }
           }
         });
}

void saxpy(sim::Node& node, int device, sim::StreamId stream, std::size_t n,
           float alpha, const float* x, float* y) {
  (void)device;
  launch(node, stream,
         streaming_stats("simblas::saxpy", 2 * n * sizeof(float),
                         n * sizeof(float), 2 * n, n),
         [=] {
           for (std::size_t i = 0; i < n; ++i) {
             y[i] = alpha * x[i] + y[i];
           }
         });
}

void shad(sim::Node& node, int device, sim::StreamId stream, std::size_t n,
          const float* a, const float* b, float* out) {
  (void)device;
  launch(node, stream,
         streaming_stats("simblas::shad", 2 * n * sizeof(float),
                         n * sizeof(float), n, n),
         [=] {
           for (std::size_t i = 0; i < n; ++i) {
             out[i] = a[i] * b[i];
           }
         });
}

void sdiv(sim::Node& node, int device, sim::StreamId stream, std::size_t n,
          const float* a, const float* b, float* out, float eps) {
  (void)device;
  launch(node, stream,
         streaming_stats("simblas::sdiv", 2 * n * sizeof(float),
                         n * sizeof(float), n, n),
         [=] {
           for (std::size_t i = 0; i < n; ++i) {
             out[i] = a[i] / std::max(b[i], eps);
           }
         });
}

void scolsum(sim::Node& node, int device, sim::StreamId stream, std::size_t m,
             std::size_t n, const float* a, float* out) {
  (void)device;
  launch(node, stream,
         streaming_stats("simblas::scolsum", m * n * sizeof(float),
                         n * sizeof(float), m * n, m * n),
         [=] {
           for (std::size_t i = 0; i < m; ++i) {
             for (std::size_t j = 0; j < n; ++j) {
               out[j] += a[i * n + j];
             }
           }
         });
}

bool GemmRoutine(maps::multi::RoutineArgs& args) {
  const float alpha = args.constant<float>(0);
  const float beta = args.constant<float>(1);
  const auto& seg_a = args.container_segments[0];
  const auto& seg_b = args.container_segments[1];
  const auto& seg_c = args.container_segments[2];
  const std::size_t m = seg_c.m_dimensions[0];
  const std::size_t n = seg_c.m_dimensions[1];
  const std::size_t k = seg_a.m_dimensions[1];
  if (seg_b.m_dimensions[0] != k || seg_b.m_dimensions[1] != n ||
      seg_a.m_dimensions[0] != m) {
    return false;
  }
  sgemm(*args.node, args.sim_device, args.stream, m, n, k, alpha,
        args.parameters[0].as<float>(), args.parameters[1].as<float>(), beta,
        args.parameters[2].as<float>());
  return true;
}

bool SaxpyRoutine(maps::multi::RoutineArgs& args) {
  const float alpha = args.constant<float>(0);
  const std::size_t n = args.container_segments[0].m_dimensions[0];
  saxpy(*args.node, args.sim_device, args.stream, n, alpha,
        args.parameters[0].as<float>(), args.parameters[1].as<float>());
  return true;
}

maps::multi::TaskHandle Gemm(maps::multi::Scheduler& sched,
                             maps::multi::Matrix<float>& a,
                             maps::multi::Matrix<float>& b,
                             maps::multi::Matrix<float>& c, float alpha,
                             float beta) {
  using namespace maps::multi;
  if (a.height() != c.height() || a.width() != b.height() ||
      b.width() != c.width()) {
    throw std::invalid_argument("simblas::Gemm: dimension mismatch");
  }
  return sched.InvokeUnmodified(GemmRoutine, nullptr, Work{c.height(), 1},
                                Block2D<float>(a), Block2DTransposed<float>(b),
                                StructuredInjective<float, 2>(c),
                                Constant<float>(alpha), Constant<float>(beta));
}

// --- XT baseline ---------------------------------------------------------------

struct XtHandle::Tile {
  sim::Buffer* a = nullptr;
  sim::Buffer* b = nullptr;
  sim::Buffer* c = nullptr;
  std::size_t m = 0, n = 0, k = 0;
};

XtHandle::XtHandle(sim::Node& node, std::vector<int> devices)
    : node_(node), devices_(std::move(devices)) {
  if (devices_.empty()) {
    throw std::invalid_argument("XtHandle: no devices");
  }
  for (int d : devices_) {
    streams_.push_back(node_.create_stream(d));
  }
  tiles_.resize(devices_.size());
}

XtHandle::~XtHandle() {
  for (auto& t : tiles_) {
    node_.free_device(t.a);
    node_.free_device(t.b);
    node_.free_device(t.c);
  }
}

void XtHandle::ensure_tiles(std::size_t m, std::size_t n, std::size_t k) {
  const std::size_t g = devices_.size();
  for (std::size_t i = 0; i < g; ++i) {
    const std::size_t rows = m / g + (i < m % g ? 1 : 0);
    Tile& t = tiles_[i];
    if (t.m == rows && t.n == n && t.k == k) {
      continue;
    }
    node_.free_device(t.a);
    node_.free_device(t.b);
    node_.free_device(t.c);
    t.m = rows;
    t.n = n;
    t.k = k;
    t.a = node_.malloc_device(devices_[i], std::max<std::size_t>(1, rows * k) *
                                               sizeof(float));
    t.b = node_.malloc_device(devices_[i], k * n * sizeof(float));
    t.c = node_.malloc_device(devices_[i], std::max<std::size_t>(1, rows * n) *
                                               sizeof(float));
  }
}

void XtHandle::sgemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
                     const float* host_a, const float* host_b, float beta,
                     float* host_c) {
  ensure_tiles(m, n, k);
  // Host-based API overhead per call (tiling bookkeeping, pinned staging).
  node_.advance_host_us(node_.topology().host_staging_software_us);

  // CUBLAS-XT streams the computation in tiles through pinned host staging
  // buffers: every C tile re-reads its A row-panel and B column-panel from
  // HOST memory (no cross-tile or cross-call residency). Staging bandwidth
  // is limited by the pinned-buffer pipeline per device and by aggregate
  // host-memory bandwidth when several devices stage at once. These
  // constants reproduce Table 4's ~4-5x penalty; see EXPERIMENTS.md.
  constexpr std::size_t kTile = 512;
  constexpr double kPinnedGBps = 8.0;   // per-device pinned staging pipeline
  constexpr double kHostAggGBps = 22.0; // host memory serving all devices
  const double bw_eff =
      std::min(kPinnedGBps,
               kHostAggGBps / static_cast<double>(devices_.size())) *
      1e9;

  std::size_t row0 = 0;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    Tile& t = tiles_[i];
    if (t.m == 0) {
      continue;
    }
    const sim::StreamId s = streams_[i];
    // Tile-panel re-streaming cost: (tiles of C) x (A panel + B panel).
    const std::size_t c_tiles =
        ((t.m + kTile - 1) / kTile) * ((n + kTile - 1) / kTile);
    const std::size_t panel_bytes = (k * kTile + kTile * k) * sizeof(float);
    const std::size_t traffic = c_tiles * panel_bytes;
    node_.stage_host_traffic(s, traffic,
                             static_cast<double>(traffic) / bw_eff);
    // The actual data movement (kept exact for functional correctness).
    node_.memcpy_h2d(s, t.a, 0, host_a + row0 * k, t.m * k * sizeof(float));
    node_.memcpy_h2d(s, t.b, 0, host_b, k * n * sizeof(float));
    if (beta != 0.0f) {
      node_.memcpy_h2d(s, t.c, 0, host_c + row0 * n, t.m * n * sizeof(float));
    }
    simblas::sgemm(node_, devices_[i], s, t.m, n, k, alpha,
                   t.a->has_backing() ? t.a->as<float>() : nullptr,
                   t.b->has_backing() ? t.b->as<float>() : nullptr, beta,
                   t.c->has_backing() ? t.c->as<float>() : nullptr);
    node_.memcpy_d2h(s, host_c + row0 * n, t.c, 0, t.m * n * sizeof(float));
    row0 += t.m;
  }
  // The host-based API is blocking: the caller's host buffers are valid on
  // return, so chained calls cannot pipeline (the §5.4 scaling killer).
  node_.synchronize();
}

void XtHandle::synchronize() { node_.synchronize(); }

} // namespace simblas
