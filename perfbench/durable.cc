// Workload `durable`: write-heavy and larger than the cache.
//
// One thread drives HashTable::OpenWithBackends over OpenDiskPageFile and
// OpenDiskWalStorage: bsize 1024, ffactor 8, a 2 MB pool.  Flush policy,
// fixed: durability=sync, wal_group_commit=32 (one log fsync per 32
// commits), checkpoint when the log reaches the default 4 MB.  200,000
// dictionary words with 100-byte values make a table about 10x the pool.
// Mix: 50% GET / 50% overwrite, Zipf 0.99.  Pool misses, evictions,
// writebacks, log commits, fsyncs and checkpoints do the work; the run
// checks a pool hit ratio below 1 and several checkpoints, then reopens
// the table (replaying its log) and verifies every key.

#include <filesystem>
#include <memory>

#include "perfbench/common.h"
#include "perfbench/table_loop.h"
#include "perfbench/trace.h"
#include "src/pagefile/page_file.h"
#include "src/wal/wal_storage.h"

namespace hashkit {
namespace perfbench {

namespace {

constexpr size_t kKeys = 200'000;
constexpr size_t kValueLen = 100;
constexpr uint32_t kPageSize = 1024;
constexpr uint64_t kMinCheckpoints = 3;

HashOptions DurableOptions() {
  HashOptions options;
  options.bsize = kPageSize;
  options.ffactor = 8;
  options.cachesize = 2ull << 20;
  options.durability = Durability::kSync;
  options.wal_group_commit = 32;
  return options;  // wal_checkpoint_bytes stays at its 4 MB default
}

// Opens the table over disk backends (decorated in a traced run);
// `*device` is the undecorated page file, whose I/O counters we read.
Result<std::unique_ptr<HashTable>> OpenDurable(const std::string& path, bool truncate,
                                               bool trace, PageFile** device) {
  HASHKIT_ASSIGN_OR_RETURN(std::unique_ptr<PageFile> file,
                           OpenDiskPageFile(path, kPageSize, truncate));
  HASHKIT_ASSIGN_OR_RETURN(std::unique_ptr<wal::WalStorage> log,
                           wal::OpenDiskWalStorage(path + ".wal"));
  *device = file.get();
  if (trace) {
    file = std::make_unique<TracedPageFile>(std::move(file));
    log = std::make_unique<TracedWal>(std::move(log));
  }
  return HashTable::OpenWithBackends(std::move(file), std::move(log), DurableOptions());
}

}  // namespace

void RunDurable(const RunConfig& config, Report* report) {
  Keyspace keys(kKeys, /*absent_keys=*/0, kValueLen, config.seed);
  const std::string dir = config.scratch_dir + "/durable";
  const std::string path = dir + "/table.db";
  std::filesystem::create_directories(dir);

  // Set-up: build the table from one bucket under the flush policy, several
  // times; keep the last.
  const int setups = config.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<HashTable> table;
  PageFile* device = nullptr;
  uint64_t heap_growth = 0;
  for (int s = 0; s < setups; ++s) {
    table.reset();
    PinToNextCpu();
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".wal");
    FlushFileSystem(dir);
    const uint64_t heap_before = HeapBytes();
    const uint64_t t0 = NowNs();
    auto opened = OpenDurable(path, /*truncate=*/true, config.trace, &device);
    if (!opened.ok()) {
      report->Check("open", false, opened.status().ToString());
      return;
    }
    table = std::move(opened).value();
    if (!LoadTable(table.get(), keys, report)) {
      return;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (s == 0) {
      heap_growth = HeapBytes() - heap_before;
    }
  }
  const uint64_t user_bytes = keys.UserBytes();  // constant: values keep their length
  FlushFileSystem(dir);  // the measured phase starts with no set-up writeback pending

  const TableCounters before = ReadCounters(table.get(), device->stats());
  const wal::WalStats wal0 = table->WalStatsSnapshot();
  std::vector<double> disk_bytes;  // table file + log, sampled between chunks
  Mix mix;
  mix.put_share = 0.5;
  mix.absent_share = 0.0;
  SetPhase(Phase::kClosedLoop);
  const LoopResult loop = RunTableLoop(
      table.get(), &keys, mix, config.seed, config.seconds, config.trace, /*span_every=*/1,
      [&] { disk_bytes.push_back(static_cast<double>(FileBytes(path) + FileBytes(path + ".wal"))); });
  const TableCounters after = ReadCounters(table.get(), device->stats());
  const wal::WalStats wal1 = table->WalStatsSnapshot();
  SetPhase(Phase::kScan);
  const double scan_rate = ScanTable(table.get(), keys, report);
  auto analysis = table->Analyze();
  if (!analysis.ok()) {
    report->Check("analyze", false, analysis.status().ToString());
    return;
  }
  const HashTable::Analysis shape = analysis.value();
  const uint64_t table_bytes = FileBytes(path);
  const uint64_t log_bytes = FileBytes(path + ".wal");

  // Close, reopen (replaying the log) and verify each key's last
  // acknowledged value.
  table.reset();
  {
    auto reopened = OpenDurable(path, /*truncate=*/false, /*trace=*/false, &device);
    if (!reopened.ok()) {
      report->Check("reopen", false, reopened.status().ToString());
      return;
    }
    const uint64_t lost = VerifyAllKeys(reopened.value().get(), keys);
    report->CountOps(kKeys, lost);
    report->Check("reopen_verifies_every_key", lost == 0, std::to_string(lost) + " wrong");
  }
  std::filesystem::remove_all(dir);

  report->Set("setup_s", Median(setup_s), "s");
  ReportLoop(loop, report);
  report->Set("scan_keys_per_s", scan_rate, "keys/s");
  report->Set("mem_bytes_per_user_byte",
              static_cast<double>(heap_growth) / static_cast<double>(user_bytes), "ratio");
  report->Set("disk_bytes_per_user_byte", Median(disk_bytes) / static_cast<double>(user_bytes),
              "ratio");
  report->Note("keys", kKeys);
  report->Note("buckets", shape.buckets);
  report->Note("user_bytes", static_cast<double>(user_bytes));
  report->Note("table_file_bytes", static_cast<double>(table_bytes));
  report->Note("log_file_bytes", static_cast<double>(log_bytes));

  // The stated cache property: the table does not fit the pool, and the
  // log is checkpointed several times within the run.
  const uint64_t misses = after.pool.misses - before.pool.misses;
  const uint64_t checkpoints = wal1.checkpoints - wal0.checkpoints;
  report->Check("pool_hit_ratio_below_1", misses > 0, std::to_string(misses) + " misses");
  report->Check("several_checkpoints", checkpoints >= kMinCheckpoints,
                std::to_string(checkpoints) + " checkpoints");

  ReportTableLayers(before, after, loop, kKeys, shape, report);
  const auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
  const auto spans = Summarize(Phase::kClosedLoop);
  const SpanSummary& reads = Find(spans, SpanName::kPagefileRead);
  const SpanSummary& writes = Find(spans, SpanName::kPagefileWrite);
  report->Layer("pagefile.read_p50_us", reads.durations.PercentileUs(0.5), "us", reads.spans);
  report->Layer("pagefile.write_p50_us", writes.durations.PercentileUs(0.5), "us", writes.spans);
  const SpanSummary& appends = Find(spans, SpanName::kWalAppend);
  const SpanSummary& syncs = Find(spans, SpanName::kWalSync);
  report->Layer("wal.commits_per_sync",
                ratio(static_cast<double>(wal1.commits - wal0.commits),
                      static_cast<double>(wal1.syncs - wal0.syncs)),
                "ratio");
  report->Layer("wal.append_p50_us", appends.durations.PercentileUs(0.5), "us", appends.spans);
  report->Layer("wal.bytes_per_user_byte",
                ratio(static_cast<double>(wal1.bytes - wal0.bytes),
                      static_cast<double>(loop.user_bytes_written)),
                "ratio");
  report->Layer("wal.sync_p50_us", syncs.durations.PercentileUs(0.5), "us", syncs.spans);
  report->Layer("wal.sync_p99_us", syncs.durations.PercentileUs(0.99), "us", syncs.spans);
  report->Layer("wal.checkpoints", static_cast<double>(checkpoints), "count");
}

}  // namespace perfbench
}  // namespace hashkit
