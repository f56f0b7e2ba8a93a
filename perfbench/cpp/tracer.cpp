#include "tracer.hpp"

#include <cstdio>
#include <set>

namespace perfbench {

int Tracer::open(const char* name) {
  if (!enabled_) {
    return -1;
  }
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.epoch = epoch_;
  s.step = step_;
  s.phase = phase_;
  const int id = static_cast<int>(spans_.size());
  open_.push_back(id);
  s.begin_ns = now_ns();
  spans_.push_back(s);
  return id;
}

void Tracer::close(int id, std::uint64_t task) {
  if (id < 0) {
    return;
  }
  const std::int64_t t = now_ns();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = t;
  s.task = task;
  // Spans close innermost-first; an exception may unwind several at once.
  while (!open_.empty() && open_.back() >= id) {
    open_.pop_back();
  }
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

const char* kind_name(char kind) {
  switch (kind) {
  case 'K':
    return "kernel";
  case 'C':
    return "copy";
  case 'H':
    return "host_func";
  case 'R':
    return "record";
  case 'W':
    return "wait";
  default:
    return "other";
  }
}

} // namespace

bool write_chrome_trace(const std::string& path, const std::string& workload,
                        const std::vector<Span>& spans, int epoch,
                        const std::vector<sim::TraceEvent>& sim_events,
                        const std::string& metadata) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  constexpr int kHostPid = 1, kSimPid = 2;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n",
               metadata.c_str());
  std::fprintf(f, "\"traceEvents\": [\n");
  std::fprintf(f,
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, "
               "\"args\": {\"name\": \"host wall clock: %s\"}},\n",
               kHostPid, json_escape(workload).c_str());
  std::fprintf(f,
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, "
               "\"args\": {\"name\": \"simulated node: %s\"}}",
               kSimPid, json_escape(workload).c_str());
  std::int64_t origin = -1;
  for (const Span& s : spans) {
    if (s.epoch != epoch) {
      continue;
    }
    if (origin < 0) {
      origin = s.begin_ns;
    }
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": %d, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"workload\": \"%s\", \"epoch\": %d, \"step\": "
                 "%d, \"task\": %llu%s}}",
                 s.name, s.phase == Phase::Setup ? "setup" : "measure",
                 kHostPid, static_cast<double>(s.begin_ns - origin) * 1e-3,
                 s.us(), json_escape(workload).c_str(), s.epoch, s.step,
                 static_cast<unsigned long long>(s.task),
                 s.streamed ? ", \"streamed\": true" : "");
  }
  std::set<int> streams;
  const double sim_origin = sim_events.empty() ? 0.0 : sim_events[0].start;
  for (const sim::TraceEvent& e : sim_events) {
    if ((e.kind == 'R' || e.kind == 'W') && e.end == e.start) {
      continue; // instantaneous event records and waits
    }
    if (streams.insert(e.stream).second) {
      std::fprintf(f,
                   ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %d, "
                   "\"tid\": %d, \"args\": {\"name\": \"device %d stream %d\"}}",
                   kSimPid, e.stream, e.device, e.stream);
    }
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": %d, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"device\": %d}}",
                 json_escape(e.label.empty() ? kind_name(e.kind) : e.label)
                     .c_str(),
                 kind_name(e.kind), kSimPid, e.stream,
                 (e.start - sim_origin) * 1e6, (e.end - e.start) * 1e6,
                 e.device);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

} // namespace perfbench
