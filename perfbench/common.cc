#include "perfbench/common.h"

#include <dirent.h>
#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>

namespace hashkit {
namespace perfbench {

uint64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Minimal JSON string escaping (names, units and check details are ASCII).
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, MetricValue>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += first ? "" : ", ";
    first = false;
    out += Quote(name) + ": {\"value\": " + Number(m.value) + ", \"unit\": " + Quote(m.unit);
    if (m.samples != 0) {
      out += ", \"samples\": " + std::to_string(m.samples);
    }
    out += "}";
  }
  return out + "}";
}

}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

int PinToNextCpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed_cpus;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
          allowed_cpus.push_back(cpu);
        }
      }
    }
    return allowed_cpus;
  }();
  static size_t next = 0;
  if (cpus.empty()) {
    return -1;
  }
  const int cpu = cpus[next++ % cpus.size()];
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (DIR* tasks = opendir("/proc/self/task"); tasks != nullptr) {
    while (const dirent* entry = readdir(tasks)) {
      const int tid = std::atoi(entry->d_name);
      if (tid > 0) {
        sched_setaffinity(tid, sizeof(one), &one);
      }
    }
    closedir(tasks);
  }
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

void FlushFileSystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

uint64_t HeapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_blocks) * 512 : 0;
}

namespace {

// Nearest rank: the smallest sample with at least q of the sample at or
// below it.
uint64_t Percentile(std::vector<uint64_t>& ns, double q) {
  const auto n = ns.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n) - 1;
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(rank), ns.end());
  return ns[rank];
}

}  // namespace

void Samples::Append(const Samples& other) {
  for (size_t w = 0; w < other.windows_.size(); ++w) {
    for (const uint64_t ns : other.windows_[w]) {
      Add(w, ns);
    }
  }
}

size_t Samples::size() const {
  size_t n = 0;
  for (const auto& window : windows_) {
    n += window.size();
  }
  return n;
}

double Samples::PercentileUs(double q) const {
  const double min_group = 10.0 / std::max(1e-9, 1.0 - q);
  std::vector<double> per_group;
  std::vector<uint64_t> group;
  for (const auto& window : windows_) {
    group.insert(group.end(), window.begin(), window.end());
    if (static_cast<double>(group.size()) >= min_group) {
      per_group.push_back(static_cast<double>(Percentile(group, q)));
      group.clear();
    }
  }
  if (per_group.empty() && !group.empty()) {
    per_group.push_back(static_cast<double>(Percentile(group, q)));
  }
  return Median(per_group) / 1000.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double MiddleMean(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t lo = values.size() / 4;
  const size_t hi = values.size() - lo;
  double sum = 0.0;
  for (size_t i = lo; i < hi; ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(hi - lo);
}

void Report::Check(const std::string& name, bool ok, const std::string& detail) {
  checks_[name] = CheckResult{ok, detail};
  if (!ok) {
    std::fprintf(stderr, "perfbench: check failed: %s %s\n", name.c_str(), detail.c_str());
  }
}

bool Report::correct() const {
  if (attempted_ == 0 || failed_ != 0) {
    return false;
  }
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const auto& entry) { return entry.second.ok; });
}

std::string Report::ToJson(const RunConfig& config) const {
  std::string out = "{\"workload\": " + Quote(config.workload) +
                    ", \"seed\": " + std::to_string(config.seed) +
                    ", \"seconds\": " + Number(config.seconds) +
                    ", \"trace\": " + (config.trace ? "1" : "0") +
                    ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
                    ", \"compiler\": " + Quote(std::string("g++ ") + __VERSION__) +
                    ", \"correct\": " + (correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) + ", \"checks\": {";
  bool first = true;
  for (const auto& [name, check] : checks_) {
    out += first ? "" : ", ";
    first = false;
    out += Quote(name) + ": {\"ok\": " + (check.ok ? "true" : "false") +
           ", \"detail\": " + Quote(check.detail) + "}";
  }
  out += "}, \"notes\": {";
  first = true;
  for (const auto& [name, value] : notes_) {
    out += first ? "" : ", ";
    first = false;
    out += Quote(name) + ": " + Number(value);
  }
  out += "}, \"end_to_end\": " + MetricsJson(end_to_end_) +
         ", \"per_layer\": " + MetricsJson(per_layer_) + "}";
  return out;
}

void SetLatency(Report* report, const std::string& op, const Samples& samples) {
  report->Set(op + "_p50_us", samples.PercentileUs(0.50), "us", samples.size());
  report->Set(op + "_p99_us", samples.PercentileUs(0.99), "us", samples.size());
}

void MakeValueInto(uint64_t index, uint32_t version, size_t length, std::string* out) {
  char buf[48];  // two decimal integers and a dot always fit
  char* dot = std::to_chars(buf, buf + 24, index + 1).ptr;
  dot[0] = '.';
  char* end = std::to_chars(dot + 1, buf + sizeof(buf), version).ptr;
  out->assign(buf, end);
  if (out->size() < length) {
    out->append(length - out->size(), static_cast<char>('a' + index % 26));
  }
}

std::string MakeValue(uint64_t index, uint32_t version, size_t length) {
  std::string out;
  MakeValueInto(index, version, length, &out);
  return out;
}

}  // namespace perfbench
}  // namespace hashkit
