#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

double Percentile(std::vector<double> values, double fraction) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(fraction * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(const std::vector<double>& values) { return Percentile(values, 0.5); }

double MedianWindowP95(const std::vector<double>& values, size_t window) {
  if (window == 0 || values.size() < window) {
    return Percentile(values, 0.95);
  }
  std::vector<double> p95s;
  for (size_t begin = 0; begin + window <= values.size(); begin += window) {
    // A remainder shorter than a window joins the last whole one.
    const size_t end = begin + 2 * window > values.size() ? values.size() : begin + window;
    p95s.push_back(Percentile(std::vector<double>(values.begin() + static_cast<ptrdiff_t>(begin),
                                                  values.begin() + static_cast<ptrdiff_t>(end)),
                              0.95));
  }
  return Median(p95s);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void Result::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

int Tracer::Begin(const std::string& name, int64_t unit) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.unit = unit;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  open_.push_back(index);
  open_allocs_.push_back(AllocCount());
  // Read the clock last so the bookkeeping above is not charged to the span.
  spans_.back().start_ms = MsSince(origin_);
  return index;
}

void Tracer::End(int index) {
  const double end = MsSince(origin_);
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ms = end;
  span.allocs = AllocCount() - open_allocs_.back();
  open_.pop_back();
  open_allocs_.pop_back();
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].children_ms += span.ms();
  }
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(span.ms());
    }
  }
  return out;
}

double Tracer::TotalMs(const std::string& name) const {
  const std::vector<double> durations = Durations(name);
  return std::accumulate(durations.begin(), durations.end(), 0.0);
}

double Tracer::TotalSelfMs(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) {
      total += span.self_ms();
    }
  }
  return total;
}

uint64_t Tracer::TotalAllocs(const std::string& name) const {
  uint64_t total = 0;
  for (const Span& span : spans_) {
    if (span.name == name) {
      total += span.allocs;
    }
  }
  return total;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"unit\":%lld,"
                 "\"self_us\":%.3f,\"allocs\":%llu}}%s\n",
                 span.name.c_str(), span.start_ms * 1e3, span.ms() * 1e3, i, span.parent,
                 static_cast<long long>(span.unit), span.self_ms() * 1e3,
                 static_cast<unsigned long long>(span.allocs),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

}  // namespace perfbench
