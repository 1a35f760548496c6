#ifndef FAIRJOB_PERFBENCH_SPAN_H_
#define FAIRJOB_PERFBENCH_SPAN_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace fairbench {

// Benchmark-side tracing. Spans are recorded only around calls the benchmark
// makes into a layer of the library (or into its own generator), never inside
// the library. Tracing is off unless Enable() is called; a disabled Span is
// one relaxed load and a branch.
//
// Each thread appends to its own buffer; a span's parent is the innermost
// span open on the same thread when it started, and a span may carry a
// request id so the spans of one request can be joined. Buffers stay in
// memory until WriteCsv at the end of the run.
void EnableTracing();

int64_t NowNs();

class Span {
 public:
  // `name` must be a string literal (stored by pointer).
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int32_t index_ = -1;  // slot in this thread's buffer; -1 = not recording
};

struct SpanTotals {
  double total_s = 0.0;  // summed durations
  double self_s = 0.0;   // summed durations minus direct children
  uint64_t count = 0;
};

// Per-name totals over every recorded span (all threads).
std::map<std::string, SpanTotals> SummarizeSpans();

// Summed self-time of the spans nested (at any depth, same thread) under
// every span named `root`, and the roots' own wall time in *root_wall_s:
// how much of a leg's wall the named spans below it account for.
double SelfTimeUnder(const char* root, double* root_wall_s);

// Number of threads that recorded a span named `name`.
size_t ThreadsWith(const char* name);

uint64_t RecordedSpans();

// Writes one line per span: thread,id,parent,name,start_ns,end_ns,request.
bool WriteSpansCsv(const std::string& path);

}  // namespace fairbench

#endif  // FAIRJOB_PERFBENCH_SPAN_H_
