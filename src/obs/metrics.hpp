// Metrics registry: one export surface for every counter and latency
// distribution the runtime produces (DESIGN.md §10).
//
// Counters live where their events happen: the engine's `core::EngineStats`
// (which also counts undo-log traffic — logs and threads keep no counters)
// and the per-monitor and monitor-table stats structs.  Those structs are the
// storage, and tests read them directly, but the registry is where they are
// *published*: the publish() adapters below fold each struct into named
// registry entries, and Registry::write_json emits everything in one
// google-benchmark-shaped document compatible with the CI's BENCH_*.json
// snapshot archive.
//
// Entries are insertion-ordered and their references are stable for the
// registry's lifetime (entries are never erased, only cleared wholesale), so
// hot paths may cache a `std::uint64_t&` counter or `Histogram*` once and
// bump it without a lookup — that is how the recorder keeps its
// forbidden-region handlers allocation-free.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/histogram.hpp"

namespace rvk::core {
struct EngineStats;
}
namespace rvk::monitor {
struct MonitorStats;
struct MonitorTableStats;
}

namespace rvk::obs {

class Registry {
 public:
  struct Entry {
    std::string name;
    std::uint64_t value = 0;            // counters
    std::unique_ptr<Histogram> hist;    // non-null for histogram entries
    bool claimed_as_counter = false;    // counter() was called on this name
    bool is_histogram() const { return hist != nullptr; }
  };

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Finds or creates the named counter; the returned reference stays valid
  // for the registry's lifetime.  Creation allocates — acquire references
  // outside forbidden regions and cache them.
  std::uint64_t& counter(std::string_view name);

  // Finds or creates the named histogram; same stability contract.
  Histogram& histogram(std::string_view name);

  // Overwrites (creating if needed) a counter with a snapshot value.
  void set(std::string_view name, std::uint64_t value) {
    counter(name) = value;
  }

  // Raises (creating if needed) a counter to at least `value` — the right
  // fold for high-water marks.
  void set_max(std::string_view name, std::uint64_t value) {
    std::uint64_t& c = counter(name);
    if (value > c) c = value;
  }

  // Folds `other` into this registry: counters add, histograms merge,
  // entries missing here are created.  The shard-merge seam (DESIGN.md §16):
  // each shard's recorder accumulates into its own registry and the last
  // recorder out absorbs its peers' before exporting.
  void merge_from(const Registry& other);

  const Entry* find(std::string_view name) const;

  const std::vector<std::unique_ptr<Entry>>& entries() const {
    return entries_;
  }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear();

  // Writes the registry as a google-benchmark-shaped JSON document:
  //   {"context": {...}, "benchmarks": [{"name": ..., ...}, ...]}
  // Counters carry "run_type":"counter" and a "value"; histograms carry
  // "run_type":"histogram" with count/mean/p50/p95/p99/p999/max (p999 is
  // bounded-error: exact below 16, else within 1/16 relative — see
  // Histogram::percentile).  `context` pairs are emitted verbatim (string
  // values, JSON-escaped).
  void write_json(
      std::ostream& os,
      const std::vector<std::pair<std::string, std::string>>& context) const;

 private:
  Entry& entry_of(std::string_view name);

  std::vector<std::unique_ptr<Entry>> entries_;
  std::unordered_map<std::string, std::size_t> index_;
};

// ---- Stats adapters (the consolidation seam) ----
//
// Each adapter folds one of the runtime's stats structs into the registry
// under `prefix` + field name.  Counters accumulate (+=) so per-run
// publications sum across a sweep's repetitions; high-water marks fold with
// max.

void publish(Registry& r, const core::EngineStats& s,
             std::string_view prefix = "engine.");
void publish(Registry& r, const monitor::MonitorStats& s,
             std::string_view prefix);
void publish(Registry& r, const monitor::MonitorTableStats& s,
             std::string_view prefix = "montable.");

// Escapes `s` for inclusion in a JSON string literal (used by the trace
// exporter too).
std::string json_escape(std::string_view s);

}  // namespace rvk::obs
