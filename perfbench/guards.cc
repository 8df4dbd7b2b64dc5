// The paper guards, run in every traced run: the Fig. 8a ratios between
// the new package and the tables it replaces, and Fig. 7's page reads at a
// 1 MB pool, on the paper's 24,474-word dictionary.  The suites are the
// repository's own Fig. 8 code (bench/fig8_suite.h); the Fig. 7 table uses
// bench/fig7_buffer_pool.cc's configuration at its 1 MB point.

#include <string>

#include "bench/fig8_suite.h"
#include "perfbench/common.h"
#include "src/core/hash_table.h"

namespace hashkit {
namespace perfbench {

namespace {

constexpr int kRuns = 3;

double CpuSeconds(const workload::TimingSample& sample) {
  return sample.user_sec + sample.sys_sec;
}

// Fig. 7 at 1 MB: bsize 256, ffactor 16, nelem known, create + read.
uint64_t Fig7ReadsAt1Mb(const std::vector<bench::Record>& records, Report* report) {
  HashOptions options;
  options.bsize = 256;
  options.ffactor = 16;
  options.nelem = static_cast<uint32_t>(records.size());
  options.cachesize = 1024 * 1024;
  const std::string path = bench::BenchPath("perfbench_fig7");
  uint64_t reads = 0;
  {
    auto opened = HashTable::Open(path, options, /*truncate=*/true);
    if (!opened.ok()) {
      report->Check("fig7_open", false, opened.status().ToString());
      return 0;
    }
    HashTable& table = *opened.value();
    uint64_t bad = 0;
    std::string value;
    for (const auto& r : records) {
      bad += table.Put(r.key, r.value).ok() ? 0 : 1;
    }
    for (const auto& r : records) {
      bad += table.Get(r.key, &value).ok() && value == r.value ? 0 : 1;
    }
    bad += table.Sync().ok() ? 0 : 1;
    report->CountOps(2 * records.size() + 1, bad);
    reads = table.file_stats().reads;
  }
  bench::RemoveBenchFiles(path);
  return reads;
}

}  // namespace

void RunPaperGuards(Report* report) {
  const std::vector<bench::Record> records = bench::DictionaryRecords();

  const workload::TimingSample hash_mem = bench::RunHashMemorySuite(records, kRuns);
  const workload::TimingSample hsearch = bench::RunHsearchSuite(records, kRuns);
  const bench::SuiteTiming hash_disk = bench::RunHashDiskSuite(records, kRuns, "perfbench_hash");
  const bench::SuiteTiming ndbm = bench::RunNdbmDiskSuite(records, kRuns, "perfbench_ndbm");
  report->Layer("baselines.fig8a_mem_ratio", CpuSeconds(hash_mem) / CpuSeconds(hsearch),
                "ratio");
  report->Layer("baselines.fig8a_create_ratio",
                CpuSeconds(hash_disk.create) / CpuSeconds(ndbm.create), "ratio");
  report->Note("baselines.fig8a_mem_hash_cpu_s", CpuSeconds(hash_mem));
  report->Note("baselines.fig8a_mem_hsearch_cpu_s", CpuSeconds(hsearch));
  report->Note("baselines.fig8a_create_hash_cpu_s", CpuSeconds(hash_disk.create));
  report->Note("baselines.fig8a_create_ndbm_cpu_s", CpuSeconds(ndbm.create));

  const uint64_t reads = Fig7ReadsAt1Mb(records, report);
  report->Layer("baselines.fig7_reads_1mb", static_cast<double>(reads), "count");
  report->Check("fig7_zero_reads_at_1mb", reads == 0, std::to_string(reads) + " page reads");
}

}  // namespace perfbench
}  // namespace hashkit
