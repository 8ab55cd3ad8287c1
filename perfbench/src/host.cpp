#include "host.hpp"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <vector>

namespace perfbench {

HostInfo host_info() {
  HostInfo h;
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  h.nproc = n > 0 ? static_cast<unsigned>(n) : 1u;
  std::ifstream cpu("/proc/cpuinfo");
  for (std::string line; std::getline(cpu, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) h.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  utsname u{};
  if (uname(&u) == 0) h.kernel = std::string(u.sysname) + " " + u.release;
  return h;
}

namespace {
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

double alu_probe_ns_per_step() {
  constexpr std::uint64_t kSteps = 20'000'000;
  volatile std::uint64_t seed = 0x9E3779B97F4A7C15ULL;
  std::uint64_t x = seed;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    x = (x ^ (x >> 17)) * 0xBF58476D1CE4E5B9ULL + i;
  }
  const double s = seconds_since(t0);
  seed = x;  // keep the chain live
  return 1e9 * s / static_cast<double>(kSteps);
}

double stream_probe_gb_per_s() {
  constexpr std::size_t kWords = (64u << 20) / sizeof(std::uint64_t);
  std::vector<std::uint64_t> buf(kWords, 1);  // touched: faults not timed
  volatile std::uint64_t sink = 0;
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t sum = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const std::uint64_t w : buf) sum += w;
    const double s = seconds_since(t0);
    sink = sum;
    const double gbps = static_cast<double>(kWords * sizeof(std::uint64_t)) /
                        s / 1e9;
    if (gbps > best) best = gbps;
  }
  (void)sink;
  return best;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec);
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
  u.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

}  // namespace perfbench
