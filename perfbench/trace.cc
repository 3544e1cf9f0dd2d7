#include "trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>

#include "common/clock.h"

namespace perfbench {

std::atomic<Tracer*> Tracer::active_{nullptr};

namespace {
// The innermost open span on this thread (parent of the next one).
thread_local int64_t current_span = 0;
}  // namespace

double HostSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

int64_t VirtualNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             godiva::Now().time_since_epoch())
      .count();
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

ScopedSpan::ScopedSpan(const char* name, int64_t request, int64_t bytes)
    : tracer_(Tracer::Active()) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->NextId();
  span_.parent = current_span;
  span_.request = request;
  span_.bytes = bytes;
  saved_parent_ = current_span;
  current_span = span_.id;
  span_.vt_begin_ns = VirtualNanos();
  span_.cpu_begin = ThreadCpuSeconds();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.cpu_end = ThreadCpuSeconds();
  span_.vt_end_ns = VirtualNanos();
  current_span = saved_parent_;
  tracer_->Record(span_);
}

std::map<std::string, SpanSummary> Summarize(const std::vector<Span>& spans) {
  struct Children {
    double cpu = 0;
    int64_t bytes = 0;
  };
  std::map<int64_t, Children> children;  // by parent id
  for (const Span& span : spans) {
    if (span.parent != 0) {
      Children& c = children[span.parent];
      c.cpu += span.cpu_end - span.cpu_begin;
      c.bytes += span.bytes;
    }
  }
  std::map<std::string, SpanSummary> out;
  for (const Span& span : spans) {
    SpanSummary& summary = out[span.name];
    double cpu = span.cpu_end - span.cpu_begin;
    ++summary.count;
    summary.cpu_s += cpu;
    auto it = children.find(span.id);
    const Children none;
    const Children& c = it == children.end() ? none : it->second;
    summary.self_cpu_s += cpu - c.cpu;
    summary.child_bytes += c.bytes;
  }
  return out;
}

// --- TracingEnv ------------------------------------------------------

namespace {

class TracingRandomAccessFile : public godiva::RandomAccessFile {
 public:
  explicit TracingRandomAccessFile(
      std::unique_ptr<godiva::RandomAccessFile> base)
      : base_(std::move(base)) {}
  godiva::Status Read(int64_t offset, int64_t size, void* out) override {
    ScopedSpan span("env.read", 0, size);
    return base_->Read(offset, size, out);
  }
  int64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<godiva::RandomAccessFile> base_;
};

}  // namespace

class TracingWritableFile : public godiva::WritableFile {
 public:
  TracingWritableFile(TracingEnv* env,
                      std::unique_ptr<godiva::WritableFile> base)
      : env_(env), base_(std::move(base)) {}
  godiva::Status Append(const void* data, int64_t size) override {
    ScopedSpan span("env.append", 0, size);
    env_->writes_.fetch_add(1, std::memory_order_relaxed);
    env_->bytes_written_.fetch_add(size, std::memory_order_relaxed);
    return base_->Append(data, size);
  }
  godiva::Status Sync() override {
    ScopedSpan span("env.sync");
    return base_->Sync();
  }
  godiva::Status Close() override {
    ScopedSpan span("env.close");
    return base_->Close();
  }

 private:
  TracingEnv* env_;
  std::unique_ptr<godiva::WritableFile> base_;
};

godiva::Result<std::unique_ptr<godiva::WritableFile>>
TracingEnv::NewWritableFile(const std::string& path) {
  ScopedSpan span("env.create");
  GODIVA_ASSIGN_OR_RETURN(std::unique_ptr<godiva::WritableFile> file,
                          base_->NewWritableFile(path));
  return std::unique_ptr<godiva::WritableFile>(
      new TracingWritableFile(this, std::move(file)));
}

godiva::Result<std::unique_ptr<godiva::RandomAccessFile>>
TracingEnv::NewRandomAccessFile(const std::string& path) {
  ScopedSpan span("env.open");
  file_opens_.fetch_add(1, std::memory_order_relaxed);
  GODIVA_ASSIGN_OR_RETURN(std::unique_ptr<godiva::RandomAccessFile> file,
                          base_->NewRandomAccessFile(path));
  return std::unique_ptr<godiva::RandomAccessFile>(
      new TracingRandomAccessFile(std::move(file)));
}

bool TracingEnv::FileExists(const std::string& path) const {
  ScopedSpan span("env.stat");
  return base_->FileExists(path);
}

godiva::Result<int64_t> TracingEnv::GetFileSize(
    const std::string& path) const {
  ScopedSpan span("env.stat");
  return base_->GetFileSize(path);
}

godiva::Status TracingEnv::DeleteFile(const std::string& path) {
  ScopedSpan span("env.delete");
  return base_->DeleteFile(path);
}

godiva::Status TracingEnv::RenameFile(const std::string& from,
                                      const std::string& to) {
  godiva::Status status;
  {
    ScopedSpan span("env.rename");
    status = base_->RenameFile(from, to);
  }
  if (status.ok() && on_rename_) on_rename_(to, VirtualNanos());
  return status;
}

godiva::Result<std::vector<std::string>> TracingEnv::ListFiles(
    const std::string& prefix) const {
  ScopedSpan span("env.list");
  return base_->ListFiles(prefix);
}

// --- Samples and metrics ---------------------------------------------

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double rank = p * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

void CompareExact(const std::map<std::string, double>& want,
                  const std::map<std::string, double>& got,
                  const std::string& what, std::vector<std::string>* errors) {
  for (const auto& [name, value] : want) {
    auto it = got.find(name);
    if (it == got.end()) {
      errors->push_back(what + ": " + name + " missing");
    } else if (it->second != value) {
      char line[256];
      std::snprintf(line, sizeof(line), "%s: %s %.17g != %.17g", what.c_str(),
                    name.c_str(), it->second, value);
      errors->push_back(line);
    }
  }
}

}  // namespace perfbench
