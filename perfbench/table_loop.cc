#include "perfbench/table_loop.h"

#include <charconv>
#include <string_view>

#include "perfbench/trace.h"
#include "src/util/random.h"
#include "src/workload/dictionary.h"

namespace hashkit {
namespace perfbench {

namespace {

enum class OpKind : uint8_t { kGet, kGetAbsent, kPut };

struct Op {
  uint32_t key;
  OpKind kind;
};

constexpr size_t kChunkOps = 1 << 16;

// One chunk of ops; the chunk's hot set is picked by a fresh shift.
void FillChunk(Rng& rng, const Keyspace& keys, const Mix& mix, std::vector<Op>* ops) {
  const size_t absent = keys.words.size() - keys.present;
  const uint64_t shift = rng.Uniform(keys.present);
  ops->resize(kChunkOps);
  for (Op& op : *ops) {
    const double r = rng.NextDouble();
    if (r < mix.put_share) {
      op.kind = OpKind::kPut;
    } else if (absent != 0 && r < mix.put_share + (1.0 - mix.put_share) * mix.absent_share) {
      op.kind = OpKind::kGetAbsent;
      op.key = static_cast<uint32_t>(keys.present + rng.Uniform(absent));
      continue;
    } else {
      op.kind = OpKind::kGet;
    }
    op.key = static_cast<uint32_t>(
        ScatterRank(rng.Zipf(keys.present, mix.zipf_theta), shift, keys.present));
  }
}

// Parses "<index+1>.<version>" from the front of a stored value.
bool ParseValue(std::string_view value, uint64_t* index, uint32_t* version) {
  uint64_t one_based = 0;
  auto [dot, ec] = std::from_chars(value.data(), value.data() + value.size(), one_based);
  if (ec != std::errc() || one_based == 0 || dot == value.data() + value.size() || *dot != '.') {
    return false;
  }
  *index = one_based - 1;
  return std::from_chars(dot + 1, value.data() + value.size(), *version).ec == std::errc();
}

}  // namespace

Keyspace::Keyspace(size_t present_keys, size_t absent_keys, size_t value_length, uint64_t seed)
    : words(workload::GenerateDictionaryWords(present_keys + absent_keys, seed)),
      present(present_keys),
      value_len(value_length),
      versions(present_keys, 0) {}

uint64_t Keyspace::UserBytes() const {
  uint64_t total = 0;
  std::string value;
  for (size_t i = 0; i < present; ++i) {
    MakeValueInto(i, versions[i], value_len, &value);
    total += words[i].size() + value.size();
  }
  return total;
}

bool LoadTable(HashTable* table, const Keyspace& keys, Report* report) {
  std::string value;
  for (size_t i = 0; i < keys.present; ++i) {
    MakeValueInto(i, 0, keys.value_len, &value);
    const Status st = table->Put(keys.words[i], value);
    if (!st.ok()) {
      report->Check("load", false, "key " + std::to_string(i) + ": " + st.ToString());
      return false;
    }
  }
  return true;
}

LoopResult RunTableLoop(HashTable* table, Keyspace* keys, const Mix& mix, uint64_t seed,
                        double seconds, bool trace, uint32_t span_every,
                        const std::function<void()>& after_chunk) {
  LoopResult out;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<Op> ops;
  std::string value;
  std::string expect;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (uint64_t chunk = 0; NowNs() < deadline; ++chunk) {
    FillChunk(rng, *keys, mix, &ops);
    const int mode = trace && chunk % 2 == 1 ? 1 : 0;
    SetRecording(mode == 1);
    const uint64_t chunk_start = NowNs();
    for (size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      const std::string& word = keys->words[op.key];
      const uint64_t trace_id = out.ops + i;
      const bool sampled = mode == 1 && trace_id % span_every == 0;
      if (op.kind == OpKind::kPut) {
        uint32_t& version = keys->versions[op.key];
        MakeValueInto(op.key, version + 1, keys->value_len, &value);
        Status st;
        const uint64_t t0 = NowNs();
        {
          const ScopedSpan span(SpanName::kCorePut, /*root=*/true, sampled, 1, trace_id);
          st = table->Put(word, value);
        }
        out.put_ns.Add(chunk, NowNs() - t0);
        if (st.ok()) {
          ++version;
          out.user_bytes_written += word.size() + value.size();
        } else {
          ++out.failed;
        }
        continue;
      }
      Status st;
      const uint64_t t0 = NowNs();
      {
        const ScopedSpan span(SpanName::kCoreGet, /*root=*/true, sampled, 1, trace_id);
        st = table->Get(word, &value);
      }
      out.get_ns.Add(chunk, NowNs() - t0);
      if (op.kind == OpKind::kGetAbsent) {
        out.failed += st.IsNotFound() ? 0 : 1;
      } else {
        MakeValueInto(op.key, keys->versions[op.key], keys->value_len, &expect);
        out.failed += st.ok() && value == expect ? 0 : 1;
      }
    }
    const uint64_t chunk_ns = NowNs() - chunk_start;
    out.chunk_rates[mode].push_back(1e9 * static_cast<double>(ops.size()) /
                                    static_cast<double>(chunk_ns));
    out.ops += ops.size();
    SetRecording(false);
    if (after_chunk) {
      after_chunk();
    }
    if (chunk % 2 == 1) {
      PinToNextCpu();  // both chunks of a pair (traced: one recording) share a CPU
    }
  }
  return out;
}

double ScanTable(HashTable* table, const Keyspace& keys, Report* report) {
  std::string key;
  std::string value;
  std::vector<double> rates;
  const uint64_t until = NowNs() + kMinScanNs;
  for (int pass = 0; pass < kMinScanPasses || NowNs() < until; ++pass) {
    uint64_t n = 0;
    const uint64_t t0 = NowNs();
    for (Status st = table->Seq(&key, &value, true); st.ok(); st = table->Seq(&key, &value, false)) {
      ++n;
    }
    rates.push_back(1e9 * static_cast<double>(n) / static_cast<double>(NowNs() - t0));
  }
  // Every pair exactly once, at its last acknowledged version.
  std::vector<bool> seen(keys.present, false);
  uint64_t bad = 0;
  uint64_t n = 0;
  std::string expect;
  for (Status st = table->Seq(&key, &value, true); st.ok(); st = table->Seq(&key, &value, false)) {
    ++n;
    uint64_t index = 0;
    uint32_t version = 0;
    if (!ParseValue(value, &index, &version) || index >= keys.present || seen[index] ||
        keys.words[index] != key || version != keys.versions[index]) {
      ++bad;
      continue;
    }
    seen[index] = true;
    MakeValueInto(index, version, keys.value_len, &expect);
    bad += value == expect ? 0 : 1;
  }
  report->CountOps(n, bad);
  report->Check("scan_returns_every_pair", n == keys.present && bad == 0,
                std::to_string(n) + " pairs, " + std::to_string(bad) + " wrong");
  return Median(rates);
}

uint64_t VerifyAllKeys(HashTable* table, const Keyspace& keys) {
  uint64_t bad = 0;
  std::string value;
  std::string expect;
  for (size_t i = 0; i < keys.present; ++i) {
    MakeValueInto(i, keys.versions[i], keys.value_len, &expect);
    const Status st = table->Get(keys.words[i], &value);
    bad += st.ok() && value == expect ? 0 : 1;
  }
  return bad;
}

void ReportLoop(const LoopResult& loop, Report* report) {
  report->CountOps(loop.ops, loop.failed);
  report->Set("ops_per_s", loop.OpsPerSecond(0), "ops/s", loop.chunk_rates[0].size());
  SetLatency(report, "get", loop.get_ns);
  SetLatency(report, "put", loop.put_ns);
  report->Note("loop.ops", static_cast<double>(loop.ops));
  if (!loop.chunk_rates[1].empty()) {
    // Tracing overhead: the throughput recording costs on the same store.
    report->Layer("trace.overhead_ratio", 1.0 - loop.OpsPerSecond(1) / loop.OpsPerSecond(0),
                  "ratio");
  }
}

void ReportTableLayers(const TableCounters& before, const TableCounters& after,
                       const LoopResult& loop, uint64_t keys_loaded,
                       const HashTable::Analysis& shape, Report* report) {
  const auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
  const auto per_op = [&](uint64_t a, uint64_t b) {
    return ratio(static_cast<double>(b - a), static_cast<double>(loop.ops));
  };
  const auto spans = Summarize(Phase::kClosedLoop);
  const SpanSummary& get = Find(spans, SpanName::kCoreGet);
  const SpanSummary& put = Find(spans, SpanName::kCorePut);
  const uint64_t calls = get.spans + put.spans;
  const uint64_t self_ns = get.self_ns + put.self_ns;
  report->Layer("core.us_per_op",
                ratio(static_cast<double>(self_ns) / 1e3, static_cast<double>(calls)), "us",
                calls);
  report->Layer("core.splits_per_insert",
                ratio(static_cast<double>(before.table.splits), static_cast<double>(keys_loaded)),
                "ratio");
  report->Layer("core.ovfl_pages_per_bucket",
                ratio(static_cast<double>(shape.overflow_pages), shape.buckets), "ratio");
  report->Layer("core.max_chain_pages", shape.max_chain_pages, "pages");
  const auto candidates = static_cast<double>(after.table.tag_filter_candidates -
                                              before.table.tag_filter_candidates);
  const auto false_hits = static_cast<double>(after.table.tag_filter_false_hits -
                                              before.table.tag_filter_false_hits);
  report->Layer("core.tag_candidates_per_get",
                ratio(candidates, static_cast<double>(after.table.gets - before.table.gets)),
                "ratio");
  report->Layer("core.tag_useful_ratio", 1.0 - ratio(false_hits, candidates), "ratio");
  const auto hits = static_cast<double>(after.pool.hits - before.pool.hits);
  const auto misses = static_cast<double>(after.pool.misses - before.pool.misses);
  report->Layer("pagefile.pool_hit_ratio", ratio(hits, hits + misses), "ratio");
  report->Layer("pagefile.evictions_per_op", per_op(before.pool.evictions, after.pool.evictions),
                "ratio");
  report->Layer("pagefile.writebacks_per_op",
                per_op(before.pool.dirty_writebacks, after.pool.dirty_writebacks), "ratio");
  report->Layer("pagefile.reads_per_op", per_op(before.file.reads, after.file.reads), "ratio");
  report->Layer("pagefile.writes_per_op", per_op(before.file.writes, after.file.writes), "ratio");
}

}  // namespace perfbench
}  // namespace hashkit
