// hashkit perfbench: shared plumbing for the three workloads.
//
// Every workload fills one Report: end-to-end metrics (printed by a plain
// run), per-layer metrics (printed by a traced run), the op tallies behind
// `attempted`/`failed`, and the named correctness checks.  main.cc prints
// the Report as one JSON object.

#ifndef HASHKIT_PERFBENCH_COMMON_H_
#define HASHKIT_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hashkit {
namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch_dir;  // files the workload may create (removed after)
  std::string trace_out;    // where a traced run writes its spans
};

// Monotonic clock in nanoseconds.
uint64_t NowNs();
// CPU time of the whole process / of the calling thread, in seconds.
double ProcessCpuSeconds();
double ThreadCpuSeconds();
// Moves every thread of the process (and the threads they start later)
// onto one CPU: the next, round robin, of the CPUs the process could use
// at the first call.  Workloads call it between set-ups and between slices
// or chunks of the measured phase, so each run spends equal time on every
// CPU: on a shared 4-vCPU Xeon VM one vCPU can run 30-50% slower than
// another for seconds to minutes (a busy neighbour), which the guest
// scheduler cannot see, and a run pinned to one CPU inherits that CPU's
// luck.  Returns the CPU, or -1 when affinity cannot be set.
int PinToNextCpu();

// Writes back every dirty page of the file system that holds `dir` and
// waits for it (syncfs), so a timed phase does not pay for writeback, or
// the discards of deleted files, that earlier work left pending: on a
// shared 4-vCPU Xeon VM, a `durable` run started right after a build
// measured 27-49k ops/s, the next ones 67-82k.
void FlushFileSystem(const std::string& dir);

// Heap bytes in use (every malloc arena, including mmapped chunks).
// Unlike the resident set size, this sees memory that reuses earlier frees.
uint64_t HeapBytes();
// Bytes a file occupies on disk (allocated blocks: the table file is
// sparse), 0 when it does not exist.
uint64_t FileBytes(const std::string& path);

// Exact per-operation latency samples (nanoseconds), kept per window (a
// chunk of ops, or a slice of wall time).  Consecutive windows are pooled
// into groups of at least ten samples beyond the percentile; it is taken
// exactly, by nearest rank, within each group, and the median across the
// groups is reported; never from histogram buckets.  The median across
// groups keeps a stall the host imposes on a few windows from setting the
// run's figure.
class Samples {
 public:
  void Add(size_t window, uint64_t ns) {
    if (window >= windows_.size()) {
      windows_.resize(window + 1);
    }
    windows_[window].push_back(ns);
  }
  void Add(uint64_t ns) { Add(0, ns); }
  // Merges `other` window by window.
  void Append(const Samples& other);
  size_t size() const;
  // `q` in [0, 1]; returns microseconds, 0 for an empty sample.  A short
  // last group is left out unless it is the only one.
  double PercentileUs(double q) const;

 private:
  std::vector<std::vector<uint64_t>> windows_;
};

// The median of a small set of repeated measurements.
double Median(std::vector<double> values);
// The mean of the middle half of `values` (the interquartile mean): robust
// to the windows a host stall hits, yet not stepped like a median of
// whole-op counts.
double MiddleMean(std::vector<double> values);

struct MetricValue {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  // sample count behind a percentile; 0 otherwise
};

class Report {
 public:
  // Records an end-to-end (`layer` false) or per-layer metric.
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0, bool layer = false) {
    (layer ? per_layer_ : end_to_end_)[name] = MetricValue{value, unit, samples};
  }
  void Layer(const std::string& name, double value, const std::string& unit,
             uint64_t samples = 0) {
    Set(name, value, unit, samples, /*layer=*/true);
  }
  // A named correctness check; a failed one fails the run.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  // Tallies operations: `failed` counts errors, timeouts and wrong results.
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  // Free-form facts printed with the result (sizes, rates, tallies).
  void Note(const std::string& name, double value) { notes_[name] = value; }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const;

  // One JSON object: workload, config, checks, notes and both metric sets.
  std::string ToJson(const RunConfig& config) const;

 private:
  struct CheckResult {
    bool ok;
    std::string detail;
  };
  std::map<std::string, MetricValue> end_to_end_;
  std::map<std::string, MetricValue> per_layer_;
  std::map<std::string, CheckResult> checks_;
  std::map<std::string, double> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Fills the end-to-end latency metrics `<op>_p50_us` and `<op>_p99_us`.
void SetLatency(Report* report, const std::string& op, const Samples& samples);

// Key popularity: rank r of a Zipf(0.99) draw maps to key
// (r * kScatter + shift) mod n, a bijection for the key counts used here,
// so the hottest keys are spread over the whole insert order.  Workloads
// draw a new `shift` from the seed every window of ops, so one run
// averages over many hot sets instead of depending on a single one.
inline constexpr uint64_t kScatter = 2654435761ull;
inline uint64_t ScatterRank(uint64_t rank, uint64_t shift, uint64_t n) {
  return (rank * kScatter + shift) % n;
}

// The value stored for key `index` at `version`: the paper's decimal index
// ("1".."N"), a dot and the version, padded to `length` bytes (no padding
// when `length` is shorter).
std::string MakeValue(uint64_t index, uint32_t version, size_t length);
// Same bytes written into `*out` (reuses its buffer).
void MakeValueInto(uint64_t index, uint32_t version, size_t length, std::string* out);

// Full scans are timed pass by pass, at least kMinScanPasses passes and
// at least kMinScanNs of them, and the median pass is reported.
inline constexpr int kMinScanPasses = 3;
inline constexpr uint64_t kMinScanNs = 1'500'000'000;

// Workload entry points (embedded.cc, server.cc, durable.cc).
void RunEmbedded(const RunConfig& config, Report* report);
void RunServer(const RunConfig& config, Report* report);
void RunDurable(const RunConfig& config, Report* report);

// The paper guards (guards.cc): Fig. 8a memory and disk-CREATE ratios and
// Fig. 7's page reads at a 1 MB pool, reported as baselines.* metrics.
void RunPaperGuards(Report* report);

}  // namespace perfbench
}  // namespace hashkit

#endif  // HASHKIT_PERFBENCH_COMMON_H_
