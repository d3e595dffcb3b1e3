// ireduct_bench: the end-to-end benchmark with per-layer attribution.
//
//   ireduct_bench [--workload NAME] [--seed N] [--seconds S] [--trace FILE]
//                 [--out FILE] [--data-dir DIR] [--work-dir DIR]
//   ireduct_bench --compare BASE.json CANDIDATE.json [--bounds BENCHMARK.json]
//
// Without --workload every workload runs, each in its own child process so
// set-up time, peak RSS and the process-wide MarginalCache stay per
// workload. Every run prints each end-to-end metric with its unit, checks
// the outputs, appends its result as one JSON line to --out, and ends
// stdout with one summary JSON line. With --trace the run also records
// the benchmark's spans — around its calls into each layer, one per
// request, one per phase — and writes them to FILE as a Chrome trace; that
// line then carries the per-layer metrics, and --compare ignores traced
// runs, so end-to-end numbers only ever come from untraced runs. Exit
// status: 0 when every check passed, 1 on a failed check, 2 on a usage or
// environment error.
#include <limits.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "spans.h"
#include "workloads.h"

namespace {

namespace fs = std::filesystem;
using namespace ireduct;
using namespace ireduct::perfbench;

struct Args {
  std::string workload;
  uint64_t seed = 11;
  double seconds = 0;
  std::string trace;
  std::string out;
  std::string data_dir;
  std::string work_dir;
  std::string compare_base;
  std::string compare_candidate;
  std::string bounds = "BENCHMARK.json";
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: ireduct_bench [--workload NAME] [--seed N] "
               "[--seconds S] [--trace FILE] [--out FILE]\n"
               "                     [--data-dir DIR] [--work-dir DIR]\n"
               "       ireduct_bench --compare BASE.json CANDIDATE.json "
               "[--bounds BENCHMARK.json]\n",
               message);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) {
        *error = flag + " needs a value";
        return false;
      }
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (flag == "--workload") {
      if (!value(&args->workload)) return false;
    } else if (flag == "--seed") {
      if (!value(&v)) return false;
      char* end = nullptr;
      args->seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') {
        *error = "--seed must be a non-negative integer";
        return false;
      }
    } else if (flag == "--seconds") {
      if (!value(&v)) return false;
      char* end = nullptr;
      args->seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(args->seconds > 0) ||
          args->seconds > 600) {
        *error = "--seconds must be in (0, 600]";
        return false;
      }
    } else if (flag == "--trace") {
      if (!value(&args->trace)) return false;
    } else if (flag == "--out") {
      if (!value(&args->out)) return false;
    } else if (flag == "--data-dir") {
      if (!value(&args->data_dir)) return false;
    } else if (flag == "--work-dir") {
      if (!value(&args->work_dir)) return false;
    } else if (flag == "--bounds") {
      if (!value(&args->bounds)) return false;
    } else if (flag == "--compare") {
      if (i + 2 >= argc) {
        *error = "--compare needs two result files";
        return false;
      }
      args->compare_base = argv[++i];
      args->compare_candidate = argv[++i];
    } else {
      *error = "unknown argument '" + flag + "'";
      return false;
    }
  }
  if (!args->workload.empty() && !IsWorkload(args->workload)) {
    *error = "unknown workload '" + args->workload + "'";
    return false;
  }
  return true;
}

std::string Absolute(const std::string& path) {
  std::error_code ec;
  const fs::path abs = fs::absolute(path, ec);
  return ec ? path : abs.lexically_normal().string();
}

std::string SelfPath() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "ireduct_bench";
  buf[n] = '\0';
  return buf;
}

// ------------------------------------------------------------- compare

int Compare(const Args& args) {
  std::ifstream bounds_file(args.bounds);
  if (!bounds_file) return Usage(("cannot read " + args.bounds).c_str());
  std::stringstream bounds_text;
  bounds_text << bounds_file.rdbuf();
  Result<std::vector<MetricBound>> bounds = ParseBounds(bounds_text.str());
  Result<RunSet> base = LoadRunSet(args.compare_base);
  Result<RunSet> candidate = LoadRunSet(args.compare_candidate);
  for (const Status& s : {bounds.status(), base.status(), candidate.status()}) {
    if (!s.ok()) return Usage(s.message().c_str());
  }
  std::printf("%-18s %-10s %27s %27s %8s %7s %6s  %s\n", "workload", "metric",
              "base median [q1, q3]", "candidate median [q1, q3]", "change",
              "spread", "bound", "verdict");
  bool worse = false;
  for (const std::string& workload : WorkloadNames()) {
    for (const MetricBound& m : *bounds) {
      const std::vector<double>* a = base->Find(workload, m.name);
      const std::vector<double>* b = candidate->Find(workload, m.name);
      if (a == nullptr || b == nullptr) continue;
      const Comparison c = CompareRuns(*a, *b, m.lower_is_better, m.bound);
      worse = worse || c.verdict == Verdict::kWorse;
      char base_cell[64], cand_cell[64];
      std::snprintf(base_cell, sizeof(base_cell), "%.4g [%.4g, %.4g]",
                    c.base.median, c.base.q1, c.base.q3);
      std::snprintf(cand_cell, sizeof(cand_cell), "%.4g [%.4g, %.4g]",
                    c.candidate.median, c.candidate.q1, c.candidate.q3);
      std::printf("%-18s %-10s %27s %27s %+7.2f%% %6.2f%% %5.1f%%  %s\n",
                  workload.c_str(), m.name.c_str(), base_cell, cand_cell,
                  c.change * 100, c.spread * 100, m.bound * 100,
                  VerdictName(c.verdict));
    }
  }
  std::printf("untraced workload runs read: base %zu, candidate %zu\n",
              base->runs,
              candidate->runs);
  return worse ? 1 : 0;
}

// ------------------------------------------------------------- running

void PrintMetrics(const WorkloadResult& r, const char* heading,
                  const std::vector<Metric>& metrics) {
  std::printf("%s %s:\n", r.workload.c_str(), heading);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// Runs one workload in this process.
int RunOne(const Args& args) {
  const std::string data_dir = Absolute(args.data_dir);
  const std::string work_dir = Absolute(args.work_dir) + "/" + args.workload;
  // Inputs come first: generation forks, which must happen before any
  // thread exists.
  if (Status s = EnsureInput(args.workload, data_dir); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.message().c_str());
    return 2;
  }
  std::error_code ec;
  fs::create_directories(work_dir, ec);
  const std::string trace_path =
      args.trace.empty() ? "" : Absolute(args.trace);
  const std::string out_path = args.out.empty() ? "" : Absolute(args.out);
  // Socket paths are relative to the working directory (sun_path is
  // short), so the process works inside its work directory.
  if (::chdir(work_dir.c_str()) != 0) {
    std::fprintf(stderr, "error: cannot enter %s\n", work_dir.c_str());
    return 2;
  }
  obs::RegisterStandardMetrics();

  WorkloadOptions options;
  options.name = args.workload;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.data_dir = data_dir;
  options.work_dir = work_dir;
  SpanRecorder spans;
  if (!trace_path.empty()) options.spans = &spans;
  WorkloadResult result = RunWorkload(options);
  if (!trace_path.empty()) {
    std::string other;
    obs::JsonWriter w(&other);
    w.BeginObject();
    w.KV("workload", args.workload);
    w.KV("seed", args.seed);
    w.Key("per_layer");
    WriteMetrics(w, result.per_layer);
    w.EndObject();
    if (Status s = spans.WriteChromeTrace(trace_path, other); !s.ok()) {
      result.Fail(s.message());
    } else {
      std::printf("%s: wrote %zu spans to %s\n", args.workload.c_str(),
                  spans.size(), trace_path.c_str());
    }
  }

  PrintMetrics(result, "end-to-end", result.end_to_end);
  PrintMetrics(result, "per-layer", result.per_layer);
  if (!result.valid) {
    std::printf("%s: INVALID RUN — the load generator ran late\n",
                args.workload.c_str());
  }
  for (const std::string& p : result.problems) {
    std::printf("%s: %s\n", args.workload.c_str(), p.c_str());
  }
  if (!out_path.empty()) {
    const HostStamp host = CollectHostStamp(work_dir);
    std::ofstream out(out_path, std::ios::app);
    out << ResultToJson(host, args.seed,
                        args.seconds > 0 ? args.seconds
                                         : DefaultSeconds(),
                        !trace_path.empty(), {&result, 1})
        << '\n';
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 2;
    }
  }
  std::printf("%s\n", ContractLine(result, !trace_path.empty()).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

// Runs every workload, each in a child process of this binary.
int RunAll(const Args& args) {
  const std::string self = SelfPath();
  bool all_ok = true;
  std::string summary = "{\"workloads\":[";
  for (const std::string& workload : WorkloadNames()) {
    std::vector<std::string> argv_s = {
        self,        "--workload", workload,          "--seed",
        std::to_string(args.seed), "--data-dir", args.data_dir,
        "--work-dir", args.work_dir};
    if (args.seconds > 0) {
      argv_s.insert(argv_s.end(), {"--seconds", obs::FormatDouble(args.seconds)});
    }
    if (!args.out.empty()) argv_s.insert(argv_s.end(), {"--out", args.out});
    if (!args.trace.empty()) {
      argv_s.insert(argv_s.end(),
                    {"--trace", args.trace + "." + workload + ".json"});
    }
    std::vector<char*> argv_c;
    for (std::string& s : argv_s) argv_c.push_back(s.data());
    argv_c.push_back(nullptr);
    std::fflush(stdout);
    const pid_t pid = ::fork();
    if (pid < 0) return Usage("fork failed");
    if (pid == 0) {
      ::execv(self.c_str(), argv_c.data());
      ::_exit(127);
    }
    int status = 0;
    const bool ok = ::waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                    WEXITSTATUS(status) == 0;
    all_ok = all_ok && ok;
    summary += std::string(summary.back() == '[' ? "" : ",") + "{\"workload\":\"" +
               workload + "\",\"ok\":" + (ok ? "true" : "false") + "}";
  }
  summary += std::string("],\"correct\":") + (all_ok ? "true" : "false") + "}";
  std::printf("%s\n", summary.c_str());
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Usage(error.c_str());
  if (!args.compare_base.empty()) return Compare(args);
  if (BuildType() != "Release") {
    std::fprintf(stderr,
                 "error: refusing to measure a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 BuildType().c_str());
    return 2;
  }
  const std::string exe_dir = fs::path(SelfPath()).parent_path().string();
  if (args.data_dir.empty()) args.data_dir = exe_dir + "/perfbench-data";
  if (args.work_dir.empty()) args.work_dir = exe_dir + "/perfbench-run";
  args.data_dir = Absolute(args.data_dir);
  args.work_dir = Absolute(args.work_dir);
  if (!args.out.empty()) args.out = Absolute(args.out);
  if (!args.trace.empty()) args.trace = Absolute(args.trace);
  return args.workload.empty() ? RunAll(args) : RunOne(args);
}
