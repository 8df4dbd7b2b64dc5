// Workload `embedded`: hashkit as a library replacing hsearch or ndbm.
//
// One thread drives HashTable::OpenInMemory with the paper's in-memory
// geometry (bsize 256, ffactor 8), grown from one bucket to 600,000
// dictionary words (the paper's decimal-index values plus a version),
// about 76k buckets held entirely by the pool.  Mix: 95% GET (one in ten
// for a never-inserted word) and 5% overwrite, Zipf 0.99.  Only the table
// and the pool's hit path work: the run checks zero backend page reads.
//
// Why 600,000: at bsize 256 the overflow pages of a split point fit one
// 256-byte bitmap, so the table runs out of overflow addresses (32 split
// points) not far past a million words: loading 1,000,000 reached split
// point 31 on every seed tried and failed with kFull on 2 of 30.  600,000
// stops at split point 27 on all 30.

#include <memory>

#include "perfbench/common.h"
#include "perfbench/table_loop.h"
#include "perfbench/trace.h"

namespace hashkit {
namespace perfbench {

namespace {

constexpr size_t kKeys = 600'000;
constexpr size_t kAbsentKeys = 60'000;
constexpr uint64_t kPoolBytes = 128ull << 20;  // holds the whole table

}  // namespace

void RunEmbedded(const RunConfig& config, Report* report) {
  Keyspace keys(kKeys, kAbsentKeys, /*value_length=*/0, config.seed);
  HashOptions options;
  options.bsize = 256;
  options.ffactor = 8;
  options.cachesize = kPoolBytes;

  // Set-up: build the table from one bucket, several times; keep the last.
  const int setups = config.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<HashTable> table;
  uint64_t heap_growth = 0;
  for (int s = 0; s < setups; ++s) {
    table.reset();
    PinToNextCpu();
    const uint64_t heap_before = HeapBytes();
    const uint64_t t0 = NowNs();
    auto opened = HashTable::OpenInMemory(options);
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
  const uint64_t user_bytes = keys.UserBytes();

  const TableCounters before = ReadCounters(table.get(), table->file_stats());
  SetPhase(Phase::kClosedLoop);
  const LoopResult loop = RunTableLoop(table.get(), &keys, Mix{}, config.seed, config.seconds,
                                       config.trace, /*span_every=*/8, nullptr);
  const TableCounters after = ReadCounters(table.get(), table->file_stats());
  SetPhase(Phase::kScan);
  const double scan_rate = ScanTable(table.get(), keys, report);
  auto analysis = table->Analyze();
  if (!analysis.ok()) {
    report->Check("analyze", false, analysis.status().ToString());
    return;
  }
  const HashTable::Analysis shape = analysis.value();
  const uint64_t table_pages = shape.buckets + shape.overflow_pages + shape.big_pair_pages;

  report->Set("setup_s", Median(setup_s), "s");
  ReportLoop(loop, report);
  report->Set("scan_keys_per_s", scan_rate, "keys/s");
  report->Set("mem_bytes_per_user_byte",
              static_cast<double>(heap_growth) / static_cast<double>(user_bytes), "ratio");
  // No file: the table's page bytes (every page it links) stand for its
  // on-disk size.
  report->Set("disk_bytes_per_user_byte",
              static_cast<double>(table_pages * options.bsize) /
                  static_cast<double>(keys.UserBytes()),
              "ratio");
  report->Note("keys", kKeys);
  report->Note("buckets", shape.buckets);
  report->Note("user_bytes", static_cast<double>(user_bytes));

  // The stated cache property: every page stays in the pool.
  report->Check("zero_backend_reads", after.file.reads == 0,
                std::to_string(after.file.reads) + " page reads");
  ReportTableLayers(before, after, loop, kKeys, shape, report);
}

}  // namespace perfbench
}  // namespace hashkit
