// hashkit perfbench: spans recorded by the benchmark around its calls into
// each layer's public interface.  Nothing here reaches inside the program:
// the traced run wraps the stores and devices it builds (TracedStore,
// TracedPageFile, TracedWal) and times its own client calls.
//
// Spans live in per-thread memory while the workload runs and are written
// out (WriteCsv) and summarized only after every thread has been joined.
// A root span opens only while recording is on; a child span opens only
// under an open span on the same thread, and inherits its trace id.

#ifndef HASHKIT_PERFBENCH_TRACE_H_
#define HASHKIT_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/kv/kv_store.h"
#include "src/pagefile/page_file.h"
#include "src/wal/wal_storage.h"

namespace hashkit {
namespace perfbench {

enum class SpanName : uint16_t {
  kCoreGet,
  kCorePut,
  kPagefileRead,
  kPagefileWrite,
  kWalAppend,
  kWalSync,
  kKvApplyBatch,
  kKvShard,
  kNetRequest,
};
const char* SpanNameString(SpanName name);

// Workload phases, stamped on every span so one run's spans can be split.
enum class Phase : uint8_t { kSetup, kClosedLoop, kOpenLoop, kScan };

// Global switches.  Recording starts off.
void SetRecording(bool on);
void SetPhase(Phase phase);

// RAII span on the calling thread.  `root` spans record when `enabled` and
// recording is on; child spans record when the thread has an open span.
// `count` is the number of operations the span covers (a batch size).
class ScopedSpan {
 public:
  ScopedSpan(SpanName name, bool root, bool enabled = true, uint32_t count = 1,
             uint64_t trace_id = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint32_t index_ = 0;  // 1-based slot in this thread's buffer; 0 = not recording
};

// Per-name totals over the spans of one phase.
struct SpanSummary {
  uint64_t spans = 0;
  uint64_t ops = 0;       // sum of span counts
  uint64_t total_ns = 0;  // sum of durations
  uint64_t self_ns = 0;   // sum of durations minus their children's
  Samples durations;      // one sample per span
};
// Call only after every recording thread has been joined.
std::map<SpanName, SpanSummary> Summarize(Phase phase);
// `name`'s entry in `spans`, or an empty summary.
const SpanSummary& Find(const std::map<SpanName, SpanSummary>& spans, SpanName name);
uint64_t RecordedSpans();
// Spans not recorded because a thread's buffer was full.
uint64_t DroppedSpans();
// Writes every span as CSV (one line per span); empty path writes nothing.
bool WriteSpansCsv(const std::string& path);

// KvStore decorator: each ApplyBatch is one span named `name` (a root span
// for the store the server calls, a child for each shard).
class TracedStore final : public kv::KvStore {
 public:
  TracedStore(std::unique_ptr<kv::KvStore> inner, SpanName name, bool root)
      : inner_(std::move(inner)), name_(name), root_(root) {}

  Status ApplyBatch(std::span<kv::BatchOp> ops) override {
    const ScopedSpan span(name_, root_, true, static_cast<uint32_t>(ops.size()));
    return inner_->ApplyBatch(ops);
  }
  using kv::KvStore::Put;
  Status Put(std::string_view key, std::string_view value, bool overwrite) override {
    return inner_->Put(key, value, overwrite);
  }
  Status Get(std::string_view key, std::string* value) override { return inner_->Get(key, value); }
  Status Delete(std::string_view key) override { return inner_->Delete(key); }
  Status Scan(std::string* key, std::string* value, bool first) override {
    return inner_->Scan(key, value, first);
  }
  size_t PartitionCount() const override { return inner_->PartitionCount(); }
  size_t PartitionOf(std::string_view key) const override { return inner_->PartitionOf(key); }
  Status Sync() override { return inner_->Sync(); }
  uint64_t Size() const override { return inner_->Size(); }
  std::string Name() const override { return inner_->Name(); }
  kv::Capabilities Caps() const override { return inner_->Caps(); }
  bool Stats(kv::StoreStats* out) const override { return inner_->Stats(out); }
  Result<std::unique_ptr<kv::KvCursor>> NewSnapshotCursor() override {
    return inner_->NewSnapshotCursor();
  }

 private:
  std::unique_ptr<kv::KvStore> inner_;
  SpanName name_;
  bool root_;
};

// PageFile decorator: ReadPage/WritePage become pagefile.read/write spans.
// Its own I/O counters stay zero; read them from the wrapped file.
class TracedPageFile final : public PageFile {
 public:
  explicit TracedPageFile(std::unique_ptr<PageFile> inner)
      : PageFile(inner->page_size()), inner_(std::move(inner)) {}

  Status ReadPage(uint64_t pageno, std::span<uint8_t> out) override {
    const ScopedSpan span(SpanName::kPagefileRead, /*root=*/false);
    return inner_->ReadPage(pageno, out);
  }
  Status WritePage(uint64_t pageno, std::span<const uint8_t> data) override {
    const ScopedSpan span(SpanName::kPagefileWrite, /*root=*/false);
    return inner_->WritePage(pageno, data);
  }
  Status Sync() override { return inner_->Sync(); }
  uint64_t PageCount() const override { return inner_->PageCount(); }

 private:
  std::unique_ptr<PageFile> inner_;
};

// WalStorage decorator: Append/Sync become wal.append/wal.sync spans.
class TracedWal final : public wal::WalStorage {
 public:
  explicit TracedWal(std::unique_ptr<wal::WalStorage> inner) : inner_(std::move(inner)) {}

  Status Append(std::span<const uint8_t> data) override {
    const ScopedSpan span(SpanName::kWalAppend, /*root=*/false);
    return inner_->Append(data);
  }
  Status Sync() override {
    const ScopedSpan span(SpanName::kWalSync, /*root=*/false);
    return inner_->Sync();
  }
  uint64_t Size() const override { return inner_->Size(); }
  Status ReadAll(std::vector<uint8_t>* out) override { return inner_->ReadAll(out); }
  Status Truncate() override { return inner_->Truncate(); }

 private:
  std::unique_ptr<wal::WalStorage> inner_;
};

}  // namespace perfbench
}  // namespace hashkit

#endif  // HASHKIT_PERFBENCH_TRACE_H_
