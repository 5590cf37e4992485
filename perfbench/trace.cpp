// Clocks, order statistics and the in-memory span tracer.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <mutex>
#include <numeric>
#include <thread>

#include "bench.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void spin_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Costs operator-(const Costs& a, const Costs& b) {
  Costs out;
  out.find_msgs = a.find_msgs - b.find_msgs;
  out.token_msgs = a.token_msgs - b.token_msgs;
  out.distance = a.distance - b.distance;
  out.max_visited = a.max_visited;
  return out;
}

// --- tracer --------------------------------------------------------------------

namespace {

// A thread keeps its first kKeptSpans spans. Once they are full, it goes
// on recording at its next outermost span into a spare buffer that is
// cleared whenever it fills, so a long traced phase pays for every span
// (trace_overhead_frac measures recording, not a drop path) while memory
// stays bounded. Keeping the first spans of every thread keeps the threads'
// spans aligned on the same requests.
constexpr std::size_t kKeptSpans = std::size_t{1} << 18;
constexpr std::size_t kSpareSpans = std::size_t{1} << 16;

struct Buffer {
  std::uint32_t thread = 0;
  std::vector<Span> kept;
  std::vector<Span> spare;
  std::vector<Span>* active = &kept;
  std::vector<std::size_t> open;  // indices of the spans still running
  std::uint64_t discarded = 0;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mutex;  // guards g_buffers registration and collection
std::vector<std::unique_ptr<Buffer>> g_buffers;
std::vector<Span> g_archive;
std::uint64_t g_discarded = 0;

Buffer& local_buffer() {
  // Buffers are owned by g_buffers and never freed, so the pointer stays
  // valid after the owning thread exits.
  thread_local Buffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_buffers.push_back(std::make_unique<Buffer>());
    local = g_buffers.back().get();
    local->thread = static_cast<std::uint32_t>(g_buffers.size() - 1);
    local->kept.reserve(4096);
  }
  return *local;
}

}  // namespace

namespace tracer {

void set_enabled(bool enabled) { g_enabled.store(enabled, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void collect() {
  std::lock_guard<std::mutex> lock(g_mutex);
  for (auto& buffer : g_buffers) {
    const auto base = static_cast<std::int64_t>(g_archive.size());
    for (Span span : buffer->kept) {
      if (span.parent >= 0) span.parent += base;
      span.thread = buffer->thread;
      g_archive.push_back(span);
    }
    buffer->kept.clear();
    g_discarded += buffer->discarded + buffer->spare.size();
    buffer->spare.clear();
    buffer->active = &buffer->kept;
    buffer->open.clear();
    buffer->discarded = 0;
  }
}

const std::vector<Span>& archive() { return g_archive; }

std::uint64_t discarded() { return g_discarded; }

bool write_chrome_json(const std::string& path, std::size_t limit) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  const std::size_t count = std::min(limit, g_archive.size());
  const std::int64_t origin = count > 0 ? g_archive.front().start_ns : 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Span& s = g_archive[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld,"
                 "\"request\":%lld,\"items\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 s.duration_ns() / 1e3, i, static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 static_cast<unsigned long long>(s.items));
  }
  std::fprintf(out, "],\"otherData\":{\"spans\":%zu,\"written\":%zu,\"discarded\":%llu}}\n",
               g_archive.size(), count, static_cast<unsigned long long>(g_discarded));
  return std::fclose(out) == 0;
}

}  // namespace tracer

Scope::Scope(const char* name, std::int64_t request, std::uint64_t items) {
  if (!tracer::enabled()) return;
  Buffer& buffer = local_buffer();
  // Switching buffers only while no span of this thread is running leaves
  // no parent index dangling.
  if (buffer.open.empty() && buffer.active == &buffer.kept &&
      buffer.kept.size() >= kKeptSpans) {
    buffer.spare.reserve(kSpareSpans);
    buffer.active = &buffer.spare;
  } else if (buffer.open.empty() && buffer.active == &buffer.spare &&
             buffer.spare.size() >= kSpareSpans) {
    buffer.discarded += buffer.spare.size();
    buffer.spare.clear();
  }
  std::vector<Span>& spans = *buffer.active;
  Span span;
  span.name = name;
  span.request = request;
  span.items = items;
  span.parent = buffer.open.empty() ? -1 : static_cast<std::int64_t>(buffer.open.back());
  index_ = spans.size();
  buffer.open.push_back(index_);
  spans_ = &spans;
  spans.push_back(span);
  spans.back().start_ns = now_ns();  // after any reallocation
}

Scope::~Scope() {
  if (spans_ == nullptr) return;
  (*spans_)[index_].end_ns = now_ns();
  local_buffer().open.pop_back();
}

void Scope::set_items(std::uint64_t items) {
  if (spans_ != nullptr) (*spans_)[index_].items = items;
}

}  // namespace perfbench
