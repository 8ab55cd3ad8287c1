#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <unordered_map>

#include "rt/scheduler.hpp"

namespace perfbench {

Ns now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

struct NameInfo {
  const char* name;
  const char* layer;
};

constexpr NameInfo kNames[] = {
    {"bench.window", "bench"},
    {"rt.shard", "rt"},
    {"svc.generate", "svc"},
    {"rt.run", "rt"},
    {"rt.switch", "rt"},
    {"offcpu", ""},
    {"rt.spawn", "rt"},
    {"rt.sleep", "rt"},
    {"svc.inject", "svc"},
    {"svc.request", "svc"},
    {"svc.execute", "svc"},
    {"harness.thread", "harness"},
    {"core.synchronized", "core"},
    {"harness.body", "harness"},
    {"heap.set", "heap"},
    {"heap.get", "heap"},
    {"domain.remote_call", "domain"},
    {"bench.worker", "bench"},
    {"bench.helper", "bench"},
    {"main.wait", ""},
};
static_assert(std::size(kNames) == static_cast<std::size_t>(SpanName::kCount));

constexpr int kIdShift = 40;
constexpr std::uint64_t kLocalMask = (1ull << kIdShift) - 1;

}  // namespace

const char* span_name(SpanName n) {
  return kNames[static_cast<std::size_t>(n)].name;
}
const char* span_layer(SpanName n) {
  return kNames[static_cast<std::size_t>(n)].layer;
}

struct Tracer::ThreadBuf {
  struct VtState {
    std::vector<std::uint64_t> stack;  // open spans, innermost last
    Ns off_since = -1;                 // switched out at, or -1
  };
  std::uint64_t index = 0;
  std::vector<Span> spans;
  std::uint64_t root = kNoSpan;
  const void* last_vt = nullptr;
  Ns last_ns = -1;
  std::unordered_map<const void*, VtState> vts;

  Span& push(SpanName n, std::uint64_t parent, std::uint64_t req, Ns start) {
    Span s;
    s.id = (index << kIdShift) | spans.size();
    s.parent = parent;
    s.req = req;
    s.start = start;
    s.name = n;
    spans.push_back(s);
    return spans.back();
  }
};

namespace {
std::atomic<std::uint64_t> g_tracer_serial{0};
}  // namespace

Tracer::Tracer() : serial_(++g_tracer_serial) {}
Tracer::~Tracer() = default;

Tracer::ThreadBuf& Tracer::buf() {
  // One buffer per (tracer, OS thread).  Tracers are told apart by serial
  // number, not address: a new tracer may reuse a destroyed one's address.
  thread_local std::uint64_t owner = 0;
  thread_local ThreadBuf* mine = nullptr;
  if (owner != serial_) {
    std::lock_guard<std::mutex> lock(mu_);
    bufs_.push_back(std::make_unique<ThreadBuf>());
    mine = bufs_.back().get();
    mine->index = bufs_.size() - 1;
    owner = serial_;
  }
  return *mine;
}

void Tracer::begin_timeline(std::uint64_t root) {
  ThreadBuf& b = buf();
  b.root = root;
  // Keep the stack of code outside any vthread (key nullptr): the timeline
  // root is on it.
  auto main_stack = std::move(b.vts[nullptr]);
  b.vts.clear();
  b.vts[nullptr] = std::move(main_stack);
  b.last_vt = nullptr;
  b.last_ns = now_ns();
}

void Tracer::observe(ThreadBuf& b, const void* vt, Ns now) {
  if (vt != b.last_vt) {
    if (b.last_vt != nullptr) b.vts[b.last_vt].off_since = b.last_ns;
    if (b.last_ns >= 0) {
      b.push(SpanName::kSwitch, b.root, 0, b.last_ns).end = now;
    }
    auto& st = b.vts[vt];
    if (st.off_since >= 0 && !st.stack.empty()) {
      b.push(SpanName::kOffcpu, st.stack.back(), 0, st.off_since).end = now;
    }
    st.off_since = -1;
    b.last_vt = vt;
  }
  b.last_ns = now;
}

std::uint64_t Tracer::open(SpanName name, std::uint64_t req) {
  ThreadBuf& b = buf();
  const Ns now = now_ns();
  const void* vt = rvk::rt::current_vthread();
  observe(b, vt, now);
  auto& st = b.vts[vt];
  const std::uint64_t parent = !st.stack.empty() ? st.stack.back()
                               : vt != nullptr   ? b.root
                                                 : kNoSpan;
  const std::uint64_t id = b.push(name, parent, req, now).id;
  st.stack.push_back(id);
  return id;
}

void Tracer::close(std::uint64_t id) {
  ThreadBuf& b = buf();
  const Ns now = now_ns();
  const void* vt = rvk::rt::current_vthread();
  observe(b, vt, now);
  auto& st = b.vts[vt];
  if (!st.stack.empty() && st.stack.back() == id) st.stack.pop_back();
  b.spans[id & kLocalMask].end = now;
}

void Tracer::record(SpanName name, Ns start, Ns end, std::uint32_t weight) {
  ThreadBuf& b = buf();
  const void* vt = rvk::rt::current_vthread();
  observe(b, vt, end);
  auto& st = b.vts[vt];
  Span& s = b.push(name, st.stack.empty() ? kNoSpan : st.stack.back(), 0,
                   start);
  s.end = end;
  s.weight = weight;
}

void Tracer::step() {
  ThreadBuf& b = buf();
  observe(b, rvk::rt::current_vthread(), now_ns());
}

std::vector<Span> Tracer::take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : bufs_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
    std::vector<Span>().swap(b->spans);  // shard threads' buffers go idle
  }
  return all;
}

std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> at;
  at.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) at[spans[i].id] = i;

  std::vector<std::vector<std::size_t>> kids(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = at.find(spans[i].parent);
    if (it != at.end()) kids[it->second].push_back(i);
  }

  std::vector<SelfTime> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[i].weight = spans[i].weight;
  }
  std::vector<std::pair<Ns, Ns>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    if (p.end < p.start) continue;
    iv.clear();
    Ns unsampled = 0;
    for (const std::size_t k : kids[i]) {
      const Span& c = spans[k];
      const Ns s = std::max(c.start, p.start);
      const Ns e = std::min(c.end, p.end);
      if (e > s) iv.emplace_back(s, e);
      if (c.weight > 1 && c.end > c.start) {
        unsampled += static_cast<Ns>(c.weight - 1) * (c.end - c.start);
      }
    }
    std::sort(iv.begin(), iv.end());
    Ns covered = 0;
    Ns cur_s = 0, cur_e = -1;
    for (const auto& [s, e] : iv) {
      if (s > cur_e) {
        if (cur_e > cur_s) covered += cur_e - cur_s;
        cur_s = s;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_s) covered += cur_e - cur_s;
    const Ns raw = std::max<Ns>(0, p.end - p.start - covered);
    if (unsampled > raw) {
      const double scale =
          static_cast<double>(raw) / static_cast<double>(unsampled);
      for (const std::size_t k : kids[i]) {
        if (spans[k].weight > 1) {
          out[k].weight = 1 + (spans[k].weight - 1) * scale;
        }
      }
      unsampled = raw;
    }
    out[i].self = raw - unsampled;
  }
  return out;
}

double LayerTimes::self_of(const std::string& layer) const {
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i] == layer) return self_s[i];
  }
  return 0.0;
}

void LayerTimes::add(const LayerTimes& o) {
  timeline_s += o.timeline_s;
  for (std::size_t i = 0; i < o.layers.size(); ++i) {
    const auto it = std::find(layers.begin(), layers.end(), o.layers[i]);
    if (it == layers.end()) {
      layers.push_back(o.layers[i]);
      self_s.push_back(o.self_s[i]);
    } else {
      self_s[static_cast<std::size_t>(it - layers.begin())] += o.self_s[i];
    }
  }
}

LayerTimes layer_times(const std::vector<Span>& spans) {
  LayerTimes out;
  const std::vector<SelfTime> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end < s.start) continue;
    if (s.parent == kNoSpan) {
      out.timeline_s += 1e-9 * static_cast<double>(s.end - s.start);
    }
    if (s.name == SpanName::kMainWait) {
      out.timeline_s -= 1e-9 * static_cast<double>(s.end - s.start);
    }
    const std::string layer = span_layer(s.name);
    if (layer.empty()) continue;
    const auto it = std::find(out.layers.begin(), out.layers.end(), layer);
    std::size_t li = static_cast<std::size_t>(it - out.layers.begin());
    if (it == out.layers.end()) {
      out.layers.push_back(layer);
      out.self_s.push_back(0.0);
    }
    out.self_s[li] += 1e-9 * self[i].weight * static_cast<double>(self[i].self);
  }
  return out;
}

std::vector<double> durations(const std::vector<Span>& spans, SpanName n) {
  std::vector<double> d;
  for (const Span& s : spans) {
    if (s.name == n && s.end >= s.start) {
      d.push_back(static_cast<double>(s.end - s.start));
    }
  }
  return d;
}

bool write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,req,name,start_ns,end_ns,weight\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%lld,%llu,%s,%lld,%lld,%u\n",
                 static_cast<unsigned long long>(s.id),
                 s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.req), span_name(s.name),
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end), s.weight);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
