#include "span.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace fairbench {
namespace {

struct Record {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index in the same buffer; -1 = none
  uint64_t request;
};

struct ThreadBuffer {
  std::vector<Record> records;
  std::vector<int32_t> open;  // stack of open span indices
};

std::atomic<bool> g_enabled{false};
std::mutex g_buffers_mutex;
// Owned here (not by the thread) so spans outlive pool threads that exit.
std::vector<std::unique_ptr<ThreadBuffer>>& Buffers() {
  static auto* buffers = new std::vector<std::unique_ptr<ThreadBuffer>>();
  return *buffers;
}

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* local = [] {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->records.reserve(1 << 12);
    ThreadBuffer* raw = buffer.get();
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    Buffers().push_back(std::move(buffer));
    return raw;
  }();
  return *local;
}

// Self time of every record: duration minus the durations of its direct
// children (children never outlive their parent on one thread).
std::vector<double> SelfSeconds(const ThreadBuffer& buffer) {
  std::vector<double> self(buffer.records.size());
  for (size_t i = 0; i < buffer.records.size(); ++i) {
    const Record& r = buffer.records[i];
    self[i] += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    if (r.parent >= 0) {
      self[static_cast<size_t>(r.parent)] -=
          static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    }
  }
  return self;
}

}  // namespace

void EnableTracing() { g_enabled.store(true, std::memory_order_relaxed); }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Span::Span(const char* name, uint64_t request) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadBuffer& buffer = LocalBuffer();
  index_ = static_cast<int32_t>(buffer.records.size());
  int32_t parent = buffer.open.empty() ? -1 : buffer.open.back();
  buffer.records.push_back(Record{name, NowNs(), 0, parent, request});
  buffer.open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadBuffer& buffer = LocalBuffer();
  buffer.records[static_cast<size_t>(index_)].end_ns = NowNs();
  buffer.open.pop_back();
}

std::map<std::string, SpanTotals> SummarizeSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::map<std::string, SpanTotals> totals;
  for (const auto& buffer : Buffers()) {
    std::vector<double> self = SelfSeconds(*buffer);
    for (size_t i = 0; i < buffer->records.size(); ++i) {
      const Record& r = buffer->records[i];
      SpanTotals& t = totals[r.name];
      t.total_s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
      t.self_s += self[i];
      ++t.count;
    }
  }
  return totals;
}

double SelfTimeUnder(const char* root, double* root_wall_s) {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  double covered = 0.0;
  *root_wall_s = 0.0;
  const std::string root_name(root);
  for (const auto& buffer : Buffers()) {
    const std::vector<Record>& records = buffer->records;
    std::vector<double> self = SelfSeconds(*buffer);
    // under[i]: record i is the root or nested below one.
    std::vector<char> under(records.size(), 0);
    for (size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      if (root_name == r.name) {
        under[i] = 1;
        *root_wall_s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
        continue;
      }
      // Parents precede children in a buffer, so one pass suffices.
      if (r.parent >= 0 && under[static_cast<size_t>(r.parent)]) {
        under[i] = 1;
        covered += self[i];
      }
    }
  }
  return covered;
}

size_t ThreadsWith(const char* name) {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  const std::string wanted(name);
  size_t threads = 0;
  for (const auto& buffer : Buffers()) {
    for (const Record& r : buffer->records) {
      if (wanted == r.name) {
        ++threads;
        break;
      }
    }
  }
  return threads;
}

uint64_t RecordedSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  uint64_t n = 0;
  for (const auto& buffer : Buffers()) n += buffer->records.size();
  return n;
}

bool WriteSpansCsv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::fprintf(f, "thread,id,parent,name,start_ns,end_ns,request\n");
  for (size_t t = 0; t < Buffers().size(); ++t) {
    const std::vector<Record>& records = Buffers()[t]->records;
    for (size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      std::fprintf(f, "%zu,%zu,%d,%s,%lld,%lld,%llu\n", t, i, r.parent,
                   r.name, static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns),
                   static_cast<unsigned long long>(r.request));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace fairbench
