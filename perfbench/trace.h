// Benchmark-side instrumentation: host and virtual clocks, in-memory spans
// recorded around calls into the program's layers, a decorator Env that
// records storage spans, and the metric/sample helpers the workloads share.
//
// Spans are recorded only while a Tracer is installed (the traced run);
// with none installed every ScopedSpan is a pointer test. A span carries
// its name, parent (the enclosing span on the same thread), a request id,
// host thread-CPU time and DE virtual time. Self time is a span's thread
// CPU minus that of its direct children, which always run on its thread.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "sim/env.h"

namespace perfbench {

// Host wall clock (steady), seconds since an arbitrary epoch.
double HostSeconds();
// CPU time consumed by the calling thread, seconds.
double ThreadCpuSeconds();
// godiva::Now() in integer nanoseconds (the virtual clock inside a
// DiscreteEventScope); differences of these are exact.
int64_t VirtualNanos();
// Peak resident set size of this process, MiB.
double PeakRssMib();

struct Span {
  const char* name = "";
  int64_t id = 0;
  int64_t parent = 0;   // 0 = top level on its thread
  int64_t request = 0;  // caller-chosen id shared by one request's spans
  double cpu_begin = 0;
  double cpu_end = 0;
  int64_t vt_begin_ns = 0;
  int64_t vt_end_ns = 0;
  int64_t bytes = 0;
};

// Collects spans in memory until Take(). Install() makes it the process-
// wide recorder; Install(nullptr) turns recording off.
class Tracer {
 public:
  static Tracer* Active() { return active_.load(std::memory_order_acquire); }
  static void Install(Tracer* tracer) {
    active_.store(tracer, std::memory_order_release);
  }

  int64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);
  std::vector<Span> Take();

 private:
  static std::atomic<Tracer*> active_;
  std::atomic<int64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// Installs `tracer` (may be null: tracing stays off) until Stop() or
// destruction.
class ScopedTracer {
 public:
  explicit ScopedTracer(Tracer* tracer) {
    if (tracer != nullptr) Tracer::Install(tracer);
  }
  ~ScopedTracer() { Stop(); }
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;
  void Stop() { Tracer::Install(nullptr); }
};

// Records one span for its lifetime when a Tracer is active.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t request = 0,
                      int64_t bytes = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;


 private:
  Tracer* tracer_;
  Span span_;
  int64_t saved_parent_ = 0;
};

// Per-name aggregates over a span list.
struct SpanSummary {
  int64_t count = 0;
  double cpu_s = 0;       // summed thread-CPU duration
  double self_cpu_s = 0;  // minus direct children
  int64_t child_bytes = 0;  // bytes of direct children
};
std::map<std::string, SpanSummary> Summarize(const std::vector<Span>& spans);

// Decorator over the workload's Env (installed with
// PlatformRuntime::SetIoEnv): records an "env.*" span around every call
// and counts writes, so storage work is visible per layer. `on_rename`
// (optional) observes each completed rename with the virtual time it
// returned at — the moment a tmp+rename write becomes visible.
class TracingEnv : public godiva::Env {
 public:
  using RenameHook = std::function<void(const std::string& to, int64_t vt_ns)>;
  explicit TracingEnv(godiva::Env* base, RenameHook on_rename = nullptr)
      : base_(base), on_rename_(std::move(on_rename)) {}

  godiva::Result<std::unique_ptr<godiva::WritableFile>> NewWritableFile(
      const std::string& path) override;
  godiva::Result<std::unique_ptr<godiva::RandomAccessFile>>
  NewRandomAccessFile(const std::string& path) override;
  bool FileExists(const std::string& path) const override;
  godiva::Result<int64_t> GetFileSize(const std::string& path) const override;
  godiva::Status DeleteFile(const std::string& path) override;
  godiva::Status RenameFile(const std::string& from,
                            const std::string& to) override;
  godiva::Result<std::vector<std::string>> ListFiles(
      const std::string& prefix) const override;

  int64_t file_opens() const { return file_opens_.load(); }
  int64_t writes() const { return writes_.load(); }
  int64_t bytes_written() const { return bytes_written_.load(); }

 private:
  friend class TracingWritableFile;
  godiva::Env* base_;
  RenameHook on_rename_;
  std::atomic<int64_t> file_opens_{0};
  std::atomic<int64_t> writes_{0};
  std::atomic<int64_t> bytes_written_{0};
};

// Linear-interpolation percentile over rank p*(n-1); 0 for no samples.
double Percentile(std::vector<double> samples, double p);

// Named metrics in insertion order, each with its unit.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

// Exact-match comparison of two modeled-metric maps; appends every
// difference to `errors`.
void CompareExact(const std::map<std::string, double>& want,
                  const std::map<std::string, double>& got,
                  const std::string& what, std::vector<std::string>* errors);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
