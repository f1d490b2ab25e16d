// Shared pieces of the benchmark binary: wall-clock and allocation counters, order
// statistics, the span tracer, and the result record every workload fills in.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// Heap allocations made by this process so far (alloc_count.cc replaces the global
// operator new). Counts every thread, so a window around a synchronous call includes
// the allocations of the pool lanes that call fans out to.
uint64_t AllocCount();

// Peak resident set of this process image in MiB (VmHWM). Unlike getrusage's
// ru_maxrss it does not inherit the high-water mark of the process that exec'd us.
double PeakRssMb();

// Order statistics over a copy of `values` (nearest-rank on the sorted samples).
double Percentile(std::vector<double> values, double fraction);
double Median(const std::vector<double>& values);
double Mean(const std::vector<double>& values);
// The 95th percentile of each run of `window` consecutive samples, median over the
// runs: the tail of a typical stretch of `window` operations. Unlike the percentile of
// all the samples pooled, a burst of host contention covering less than half of a
// measurement moves it little.
double MedianWindowP95(const std::vector<double>& values, size_t window);

// Episodes a run repeats at least, so set-up time is a median of several.
constexpr int kMinEpisodes = 3;

// Command-line inputs of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // results, traces and checkpoint scratch go here
  std::string commit = "unknown";
};

// What a workload reports. `metrics` holds the declared metrics (end-to-end on an
// untraced run, per-layer on a traced one); `info` holds deterministic diagnostics
// and stamps that go only to the results file.
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, double> info;
  std::vector<std::string> failures;  // one line per failed operation or check
  // Declared metrics of layers this workload never reaches: reported as 0 and named
  // in the record, so a metric the binary forgets to report stays an error.
  std::vector<std::string> unreached;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void SetUnreached(const std::string& name, const std::string& unit) {
    Set(name, 0.0, unit);
    unreached.push_back(name);
  }
  // Counts one attempted operation or output check; records it as failed when !ok.
  void Check(bool ok, const std::string& what);
};

// In-memory spans around the benchmark's own calls into each layer (single benchmark
// thread). Spans nest through an explicit stack; each carries the step or query id
// it belongs to and the allocations made while it was open.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
    int64_t unit = 0;  // step or query id
    uint64_t allocs = 0;
    double children_ms = 0.0;  // time covered by direct children

    double ms() const { return end_ms - start_ms; }
    double self_ms() const { return ms() - children_ms; }
  };

  Tracer() : origin_(Clock::now()) {}

  int Begin(const std::string& name, int64_t unit);
  void End(int span);

  const std::vector<Span>& spans() const { return spans_; }
  // Durations (ms) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;
  double TotalMs(const std::string& name) const;
  double TotalSelfMs(const std::string& name) const;
  uint64_t TotalAllocs(const std::string& name) const;
  // Chrome trace-event JSON (one complete event per span).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<uint64_t> open_allocs_;
};

// RAII span; records nothing when `tracer` is null (the untraced run).
class Scoped {
 public:
  Scoped(Tracer* tracer, const std::string& name, int64_t unit)
      : tracer_(tracer), span_(tracer != nullptr ? tracer->Begin(name, unit) : -1) {}
  ~Scoped() {
    if (tracer_ != nullptr) {
      tracer_->End(span_);
    }
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

Result RunLmSparse(const Args& args);
Result RunMlpDense(const Args& args);
Result RunPlanService(const Args& args);
Result RunLmElastic(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
