// hashkit perfbench: the single-threaded closed loop over a HashTable that
// the `embedded` and `durable` workloads share: op generation from the
// seed, exact per-call latency samples, verification of every result, the
// table build timed as set-up, and the timed sequential scan.

#ifndef HASHKIT_PERFBENCH_TABLE_LOOP_H_
#define HASHKIT_PERFBENCH_TABLE_LOOP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/core/hash_table.h"

namespace hashkit {
namespace perfbench {

// The keyspace: `present` words that are loaded, then `absent` words that
// never are, all from the dictionary generator with the run's seed.
struct Keyspace {
  std::vector<std::string> words;
  size_t present = 0;
  size_t value_len = 0;            // values are MakeValue(i, version, value_len)
  std::vector<uint32_t> versions;  // last acknowledged version per present key

  Keyspace(size_t present_keys, size_t absent_keys, size_t value_length, uint64_t seed);
  // Sum of key+value bytes of the live pairs.
  uint64_t UserBytes() const;
};

// Inserts every present key at version 0 into `table`; false (with the
// failure recorded in `report`) if a Put fails.
bool LoadTable(HashTable* table, const Keyspace& keys, Report* report);

struct Mix {
  double put_share = 0.05;     // overwrites among all ops
  double absent_share = 0.10;  // lookups of never-inserted words among GETs
  double zipf_theta = 0.99;
};

struct LoopResult {
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t user_bytes_written = 0;  // key+value bytes of acknowledged puts
  Samples get_ns;  // one window per chunk
  Samples put_ns;
  // Each chunk's ops/s, with recording off (index 0) and on (index 1);
  // untraced runs only fill index 0.
  std::vector<double> chunk_rates[2];

  double OpsPerSecond(int mode) const { return MiddleMean(chunk_rates[mode]); }
};

// Runs the closed loop, chunk after chunk of generated ops, for `seconds`
// of wall time.  In a traced run, recording alternates chunk by chunk and
// one op in `span_every` opens a core.get/core.put root span.
// `after_chunk` runs between chunks, outside the timed region, and the
// process moves to the next CPU after every second chunk.
LoopResult RunTableLoop(HashTable* table, Keyspace* keys, const Mix& mix, uint64_t seed,
                        double seconds, bool trace, uint32_t span_every,
                        const std::function<void()>& after_chunk);

// Times full Seq passes (key and data) and returns the median pass's
// keys/s; then checks one more pass against `keys` into `report`.
double ScanTable(HashTable* table, const Keyspace& keys, Report* report);

// Checks each present key's value is its last acknowledged version;
// returns the number of mismatches.
uint64_t VerifyAllKeys(HashTable* table, const Keyspace& keys);

// Fills the end-to-end metrics the loop measures (and, traced, the
// tracing overhead).
void ReportLoop(const LoopResult& loop, Report* report);

// A table's counters at one moment; `file` comes from the page file whose
// I/O is counted (under a traced decorator, the one it wraps).
struct TableCounters {
  HashTableStats table;
  BufferPoolStats pool;
  PageFileStats file;
};
inline TableCounters ReadCounters(HashTable* table, const PageFileStats& file) {
  return {table->StatsSnapshot(), table->PoolStatsSnapshot(), file};
}

// Reports the core.* and pagefile.* layer metrics of a loop that ran
// between `before` (taken right after loading `keys_loaded` keys) and
// `after`: call self time from its core.get/core.put spans, the load's
// split rate, the shape Analyze() found, and the tag-filter, pool and
// file counters per op.
void ReportTableLayers(const TableCounters& before, const TableCounters& after,
                       const LoopResult& loop, uint64_t keys_loaded,
                       const HashTable::Analysis& shape, Report* report);

}  // namespace perfbench
}  // namespace hashkit

#endif  // HASHKIT_PERFBENCH_TABLE_LOOP_H_
