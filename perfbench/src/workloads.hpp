// The four benchmark workloads and the run protocol around them
// (README.md has the why of each, and every metric's definition).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // span CSV path for the traced run; "" = none
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Report {
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced
  std::vector<Check> checks;
  std::uint64_t attempted = 0;  // operations offered in the run's windows
  std::uint64_t failed = 0;     // ... in windows whose checks failed
  bool correct() const;
  const Metric* find(const std::string& name) const;
};

const std::vector<std::string>& workload_names();

// Runs one workload per `opt`, printing diagnostics to stdout as it goes.
Report run(const Options& opt);

}  // namespace perfbench
