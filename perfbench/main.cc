// hashkit_perfbench: runs one workload and prints its Report as one JSON
// line.  perfbench/run.py builds this binary and turns that line into the
// benchmark's result.
//
//   hashkit_perfbench --workload embedded|server|durable --seed N
//       --seconds S --trace 0|1 --scratch DIR [--trace-out FILE]
//
// Exits 0 when every operation and check passed, 1 when one failed, 2 on
// bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/common.h"
#include "perfbench/trace.h"

namespace hashkit {
namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: hashkit_perfbench --workload embedded|server|durable --seed N "
               "--seconds S --trace 0|1 --scratch DIR [--trace-out FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--scratch") {
      config.scratch_dir = value;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') {
      return Usage();
    }
  }
  if (argc % 2 != 1 || config.seconds <= 0 || config.scratch_dir.empty()) {
    return Usage();
  }

  // Every workload runs on one CPU at a time.  For `server` that puts the
  // client and the server's threads together: they take turns, and apart
  // each request pays a cross-CPU wakeup whose cost on a shared VM varies
  // from run to run.
  PinToNextCpu();
  FlushFileSystem(config.scratch_dir);
  Report report;
  if (config.workload == "embedded") {
    RunEmbedded(config, &report);
  } else if (config.workload == "server") {
    RunServer(config, &report);
  } else if (config.workload == "durable") {
    RunDurable(config, &report);
  } else {
    return Usage();
  }
  if (config.trace) {
    RunPaperGuards(&report);
    report.Note("trace.spans", static_cast<double>(RecordedSpans()));
    report.Note("trace.dropped_spans", static_cast<double>(DroppedSpans()));
    report.Check("trace_written", WriteSpansCsv(config.trace_out), config.trace_out);
  }
  // Failed, timed-out or wrong-result ops, as the share that went right.
  const double attempted = static_cast<double>(report.attempted());
  report.Set("ok_ratio",
             attempted == 0 ? 0.0 : 1.0 - static_cast<double>(report.failed()) / attempted,
             "ratio");
  std::printf("%s\n", report.ToJson(config).c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace hashkit

int main(int argc, char** argv) { return hashkit::perfbench::Main(argc, argv); }
