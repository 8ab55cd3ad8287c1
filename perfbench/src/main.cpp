// perfbench: one benchmark run.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <spans.csv>]
//
// Prints diagnostics, every metric with its unit, every output check, and
// as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 when the run completed (a failed check is reported through
// "correct", not the exit code), 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\nworkloads:",
               why);
  for (const std::string& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const char* s, unsigned long long& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    unsigned long long n = 0;
    if (arg == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse_u64(val, n)) return usage("--seed takes an integer");
      opt.seed = n;
    } else if (arg == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(val, &end);
      if (end == val || *end != '\0' || !(opt.seconds > 0) || opt.seconds > 600) {
        return usage("--seconds takes a number in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (!parse_u64(val, n) || n > 1) return usage("--trace takes 0 or 1");
      opt.trace = n == 1;
    } else if (arg == "--trace-out") {
      opt.trace_out = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) {
    known = known || w == opt.workload;
  }
  if (!known) return usage(("unknown workload " + opt.workload).c_str());

  perfbench::Report r;
  try {
    r = perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("checks:\n");
  if (r.checks.empty()) std::printf("  all output checks passed\n");
  for (const perfbench::Check& c : r.checks) {
    std::printf("  %s: %s %s\n", c.ok ? "ok" : "FAILED", c.name.c_str(),
                c.detail.c_str());
  }
  std::printf("metrics:\n");
  for (const perfbench::Metric& m : r.metrics) {
    std::printf("  %-34s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += r.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + num +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
