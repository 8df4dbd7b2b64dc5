#include "perfbench/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>

namespace hashkit {
namespace perfbench {

namespace {

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t trace_id = 0;
  uint32_t parent = 0;  // 1-based index in the same thread's buffer; 0 = root
  uint32_t count = 1;
  SpanName name = SpanName::kCoreGet;
  Phase phase = Phase::kSetup;
};

// One thread's spans, in fixed-size blocks so recording never moves them.
struct ThreadBuffer {
  static constexpr uint32_t kBlock = 1u << 16;
  // Beyond this many spans a thread stops recording (counted as dropped).
  static constexpr uint32_t kMaxSpans = 1u << 21;

  std::vector<std::unique_ptr<Span[]>> blocks;
  uint32_t size = 0;
  std::vector<uint32_t> open;  // stack of open spans (1-based indices)

  Span& At(uint32_t index) { return blocks[(index - 1) / kBlock][(index - 1) % kBlock]; }
  uint32_t Push() {
    if (size % kBlock == 0) {
      blocks.push_back(std::make_unique<Span[]>(kBlock));
    }
    return ++size;
  }
};

std::atomic<bool> g_recording{false};
std::atomic<Phase> g_phase{Phase::kSetup};
std::atomic<uint64_t> g_dropped{0};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mu
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer* Register() {
  const std::lock_guard<std::mutex> lock(g_mu);
  g_buffers.push_back(std::make_unique<ThreadBuffer>());
  t_buffer = g_buffers.back().get();
  t_buffer->open.reserve(16);
  return t_buffer;
}

}  // namespace

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kCoreGet:
      return "core.get";
    case SpanName::kCorePut:
      return "core.put";
    case SpanName::kPagefileRead:
      return "pagefile.read";
    case SpanName::kPagefileWrite:
      return "pagefile.write";
    case SpanName::kWalAppend:
      return "wal.append";
    case SpanName::kWalSync:
      return "wal.sync";
    case SpanName::kKvApplyBatch:
      return "kv.apply_batch";
    case SpanName::kKvShard:
      return "kv.shard";
    case SpanName::kNetRequest:
      return "net.request";
  }
  return "unknown";
}

void SetRecording(bool on) { g_recording.store(on, std::memory_order_relaxed); }
void SetPhase(Phase phase) { g_phase.store(phase, std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(SpanName name, bool root, bool enabled, uint32_t count,
                       uint64_t trace_id) {
  ThreadBuffer* buf = t_buffer;
  if (root) {
    if (!enabled || !g_recording.load(std::memory_order_relaxed)) {
      return;
    }
    if (buf == nullptr) {
      buf = Register();
    }
  } else if (buf == nullptr || buf->open.empty()) {
    return;
  }
  if (buf->size >= ThreadBuffer::kMaxSpans) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const uint32_t parent = buf->open.empty() ? 0 : buf->open.back();
  if (parent != 0) {
    trace_id = buf->At(parent).trace_id;
  }
  index_ = buf->Push();
  Span& span = buf->At(index_);
  span.trace_id = trace_id;
  span.parent = parent;
  span.count = count;
  span.name = name;
  span.phase = g_phase.load(std::memory_order_relaxed);
  buf->open.push_back(index_);
  span.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (index_ == 0) {
    return;
  }
  ThreadBuffer* buf = t_buffer;
  buf->At(index_).end_ns = NowNs();
  buf->open.pop_back();
}

std::map<SpanName, SpanSummary> Summarize(Phase phase) {
  const std::lock_guard<std::mutex> lock(g_mu);
  std::map<SpanName, SpanSummary> out;
  for (const auto& buf : g_buffers) {
    std::vector<uint64_t> child_ns(buf->size, 0);
    for (uint32_t i = 1; i <= buf->size; ++i) {
      const Span& span = buf->At(i);
      if (span.parent != 0) {
        child_ns[span.parent - 1] += span.end_ns - span.start_ns;
      }
    }
    for (uint32_t i = 1; i <= buf->size; ++i) {
      const Span& span = buf->At(i);
      if (span.phase != phase) {
        continue;
      }
      const uint64_t duration = span.end_ns - span.start_ns;
      SpanSummary& summary = out[span.name];
      ++summary.spans;
      summary.ops += span.count;
      summary.total_ns += duration;
      summary.self_ns += duration - std::min(duration, child_ns[i - 1]);
      summary.durations.Add(duration);
    }
  }
  return out;
}

const SpanSummary& Find(const std::map<SpanName, SpanSummary>& spans, SpanName name) {
  static const SpanSummary kEmpty;
  const auto it = spans.find(name);
  return it == spans.end() ? kEmpty : it->second;
}

uint64_t RecordedSpans() {
  const std::lock_guard<std::mutex> lock(g_mu);
  uint64_t total = 0;
  for (const auto& buf : g_buffers) {
    total += buf->size;
  }
  return total;
}

uint64_t DroppedSpans() { return g_dropped.load(std::memory_order_relaxed); }

bool WriteSpansCsv(const std::string& path) {
  if (path.empty()) {
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "thread,index,parent,name,phase,trace_id,count,start_ns,end_ns\n");
  const std::lock_guard<std::mutex> lock(g_mu);
  for (size_t t = 0; t < g_buffers.size(); ++t) {
    ThreadBuffer& buf = *g_buffers[t];
    for (uint32_t i = 1; i <= buf.size; ++i) {
      const Span& s = buf.At(i);
      std::fprintf(f, "%zu,%u,%u,%s,%u,%llu,%u,%llu,%llu\n", t, i, s.parent,
                   SpanNameString(s.name), static_cast<unsigned>(s.phase),
                   static_cast<unsigned long long>(s.trace_id), s.count,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
}  // namespace hashkit
