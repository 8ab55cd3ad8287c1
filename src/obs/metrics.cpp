#include "obs/metrics.hpp"

#include <ostream>

#include "common/check.hpp"
#include "core/engine.hpp"
#include "monitor/monitor.hpp"
#include "monitor/monitor_table.hpp"

namespace rvk::obs {

Registry::Entry& Registry::entry_of(std::string_view name) {
  auto it = index_.find(std::string(name));
  if (it != index_.end()) return *entries_[it->second];
  entries_.push_back(std::make_unique<Entry>());
  Entry& e = *entries_.back();
  e.name = std::string(name);
  index_.emplace(e.name, entries_.size() - 1);
  return e;
}

std::uint64_t& Registry::counter(std::string_view name) {
  Entry& e = entry_of(name);
  RVK_CHECK_MSG(!e.is_histogram(),
                "registry entry is a histogram, not a counter");
  e.claimed_as_counter = true;
  return e.value;
}

Histogram& Registry::histogram(std::string_view name) {
  Entry& e = entry_of(name);
  if (!e.is_histogram()) {
    RVK_CHECK_MSG(!e.claimed_as_counter,
                  "registry entry is a counter, not a histogram");
    e.hist = std::make_unique<Histogram>();
  }
  return *e.hist;
}

const Registry::Entry* Registry::find(std::string_view name) const {
  auto it = index_.find(std::string(name));
  return it != index_.end() ? entries_[it->second].get() : nullptr;
}

void Registry::clear() {
  entries_.clear();
  index_.clear();
}

void Registry::merge_from(const Registry& other) {
  for (const auto& e : other.entries_) {
    if (e->is_histogram()) {
      histogram(e->name).merge(*e->hist);
    } else {
      counter(e->name) += e->value;
    }
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

void Registry::write_json(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::string>>& context) const {
  os << "{\n  \"context\": {";
  bool first = true;
  for (const auto& [k, v] : context) {
    os << (first ? "" : ",") << "\n    \"" << json_escape(k) << "\": \""
       << json_escape(v) << "\"";
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"benchmarks\": [";
  first = true;
  for (const auto& e : entries_) {
    os << (first ? "" : ",") << "\n    {\"name\": \"" << json_escape(e->name)
       << "\", ";
    if (e->is_histogram()) {
      const Histogram& h = *e->hist;
      os << "\"run_type\": \"histogram\", \"count\": " << h.count()
         << ", \"mean\": " << h.mean() << ", \"p50\": " << h.percentile(0.50)
         << ", \"p95\": " << h.percentile(0.95)
         << ", \"p99\": " << h.percentile(0.99)
         << ", \"p999\": " << h.percentile(0.999) << ", \"max\": " << h.max()
         << "}";
    } else {
      os << "\"run_type\": \"counter\", \"value\": " << e->value << "}";
    }
    first = false;
  }
  os << (first ? "" : "\n  ") << "]\n}\n";
}

// ---------------------------------------------------------------------------
// Legacy-stats adapters

void publish(Registry& r, const core::EngineStats& s,
             std::string_view prefix) {
  const std::string p(prefix);
  r.counter(p + "sections_entered") += s.sections_entered;
  r.counter(p + "sections_committed") += s.sections_committed;
  r.counter(p + "frames_aborted") += s.frames_aborted;
  r.counter(p + "rollbacks_completed") += s.rollbacks_completed;
  r.counter(p + "revocations_requested") += s.revocations_requested;
  r.counter(p + "revocations_denied_pinned") += s.revocations_denied_pinned;
  r.counter(p + "revocations_denied_budget") += s.revocations_denied_budget;
  r.counter(p + "revocations_dropped_stale") += s.revocations_dropped_stale;
  r.counter(p + "revocations_lost_to_commit") += s.revocations_lost_to_commit;
  r.counter(p + "inversions_detected_acquire") +=
      s.inversions_detected_acquire;
  r.counter(p + "inversions_detected_background") +=
      s.inversions_detected_background;
  r.counter(p + "deadlocks_detected") += s.deadlocks_detected;
  r.counter(p + "deadlocks_broken") += s.deadlocks_broken;
  r.counter(p + "frames_pinned") += s.frames_pinned;
  r.counter(p + "foreign_reads_observed") += s.foreign_reads_observed;
  r.counter(p + "spec_allocs_reclaimed") += s.spec_allocs_reclaimed;
  r.counter(p + "words_undone") += s.words_undone;
  r.counter(p + "log_appends") += s.log_appends;
  r.counter(p + "entry_aborts") += s.entry_aborts;
}

void publish(Registry& r, const monitor::MonitorStats& s,
             std::string_view prefix) {
  const std::string p(prefix);
  r.counter(p + "acquires") += s.acquires;
  r.counter(p + "contended") += s.contended;
  r.counter(p + "handoffs") += s.handoffs;
  r.counter(p + "reservations") += s.reservations;
  r.counter(p + "steals") += s.steals;
  r.counter(p + "waits") += s.waits;
  r.counter(p + "notifies") += s.notifies;
  r.counter(p + "bias_grants") += s.bias_grants;
  r.counter(p + "bias_revocations") += s.bias_revocations;
  r.counter(p + "aborts") += s.aborts;
  r.counter(p + "timeouts") += s.timeouts;
  r.counter(p + "cancels") += s.cancels;
}

void publish(Registry& r, const monitor::MonitorTableStats& s,
             std::string_view prefix) {
  const std::string p(prefix);
  r.counter(p + "inflations") += s.inflations;
  r.counter(p + "deflations") += s.deflations;
  r.counter(p + "re_inflations") += s.re_inflations;
  r.counter(p + "inflation_by_contention") += s.inflation_by_contention;
  r.counter(p + "inflation_by_overflow") += s.inflation_by_overflow;
  r.counter(p + "inflation_by_wait") += s.inflation_by_wait;
  r.counter(p + "inflation_by_sync") += s.inflation_by_sync;
  r.counter(p + "scavenge_passes") += s.scavenge_passes;
  r.set_max(p + "live_high_water", s.live_high_water);
}

}  // namespace rvk::obs
