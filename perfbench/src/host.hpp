// Host facts and noise probes printed with every run (not gated), and the
// process resource counters the proc.* metrics come from.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HostInfo {
  unsigned nproc = 1;
  std::string cpu_model;
  std::string kernel;
};
HostInfo host_info();

// Nanoseconds per step of a fixed dependent multiply-xor chain: moves with
// core clock and co-tenant load, not with memory layout.
double alu_probe_ns_per_step();
// GB/s of a sequential read over a fixed 64 MiB buffer: moves with memory
// bandwidth contention.
double stream_probe_gb_per_s();

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  std::uint64_t minor_faults = 0;
  double max_rss_mb = 0;
};
Usage usage_now();

}  // namespace perfbench
