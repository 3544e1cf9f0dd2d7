// Per-layer metrics: the full name set every traced run prints (a metric a
// workload does not exercise reads 0 there; README.md lists which workload
// moves which), and the helpers that fill them from program counters and
// spans.
#include "layers.h"

#include <algorithm>

namespace perfbench {
namespace {
constexpr double kMib = 1024.0 * 1024.0;
}  // namespace

const std::vector<std::string>& Fig3CellNames() {
  static const std::vector<std::string> names = {
      "simple_O_engle",  "simple_G_engle",  "simple_TG_engle",
      "medium_O_engle",  "medium_G_engle",  "medium_TG_engle",
      "complex_O_engle", "complex_G_engle", "complex_TG_engle",
      "simple_TG_turing", "medium_TG_turing", "complex_TG_turing",
  };
  return names;
}

void InitPerLayer(Metrics* m) {
  const char* const kCounts[] = {
      "sim.disk_reads",          "sim.disk_seeks",
      "sim.disk_writes",         "sim.sched_grants",
      "sim.sched_timer_events",  "sim.sched_clock_advances",
      "gsdf.file_opens",         "core.units_loaded",
      "core.units_evicted",      "core.demand_promotions",
      "core.plan_batches_issued", "core.units_superseded",
      "core.watch_notifications", "viz.pushdown_values",
      "viz.triangles",
  };
  for (const char* name : kCounts) m->Set(name, 0, "count");
  m->Set("sim.disk_bytes_read_mib", 0, "MiB");
  m->Set("sim.disk_busy_modeled_s", 0, "s");
  m->Set("sim.disk_bytes_written_mib", 0, "MiB");
  m->Set("sim.env_host_s", 0, "s");
  m->Set("gsdf.read_fn_self_host_us_per_mib", 0, "us/MiB");
  m->Set("gsdf.bytes_per_device_read_kib", 0, "KiB");
  m->Set("core.prefetch_share", 0, "ratio");
  m->Set("core.cache_hit_ratio", 0, "ratio");
  m->Set("core.read_fn_modeled_s", 0, "s");
  m->Set("core.io_busy_modeled_s", 0, "s");
  m->Set("core.plan_submit_host_us", 0, "us");
  m->Set("core.plan_dedup_ratio", 0, "ratio");
  m->Set("core.plan_bytes_saved_mib", 0, "MiB");
  m->Set("core.session_queue_wait_p50_ms", 0, "ms");
  m->Set("core.session_queue_wait_p90_ms", 0, "ms");
  m->Set("core.session_call_self_host_us", 0, "us");
  m->Set("core.peak_memory_mib", 0, "MiB");
  m->Set("viz.pushdown_host_us_per_unit", 0, "us");
  m->Set("mesh.dataset_write_host_s", 0, "s");
  m->Set("mesh.producer_self_host_s", 0, "s");
  m->Set("workloads.g_run_s", 0, "s");
  m->Set("workloads.query_p50_ms", 0, "ms");
  m->Set("workloads.query_p90_ms", 0, "ms");
  m->Set("workloads.demand_p50_ms", 0, "ms");
  m->Set("workloads.demand_p90_ms", 0, "ms");
  m->Set("workloads.lag_p50_ms", 0, "ms");
  m->Set("workloads.lag_p90_ms", 0, "ms");
  for (const std::string& cell : Fig3CellNames()) {
    m->Set("workloads.cell_host_s." + cell, 0, "s");
    m->Set("workloads.cell_modeled_s." + cell, 0, "s");
  }
}

void AddDiskLayer(const godiva::DiskStats& disk, Metrics* m) {
  m->Set("sim.disk_reads", static_cast<double>(disk.reads), "count");
  m->Set("sim.disk_seeks", static_cast<double>(disk.seeks), "count");
  m->Set("sim.disk_bytes_read_mib",
         static_cast<double>(disk.bytes_read) / kMib, "MiB");
  m->Set("sim.disk_busy_modeled_s", disk.modeled_read_seconds, "s");
  m->Set("gsdf.bytes_per_device_read_kib",
         disk.reads > 0 ? static_cast<double>(disk.bytes_read) /
                              static_cast<double>(disk.reads) / 1024.0
                        : 0.0,
         "KiB");
}

void AddSchedulerLayer(const godiva::SchedulerStats& sched, Metrics* m) {
  m->Set("sim.sched_grants", static_cast<double>(sched.grants), "count");
  m->Set("sim.sched_timer_events", static_cast<double>(sched.timer_events),
         "count");
  m->Set("sim.sched_clock_advances",
         static_cast<double>(sched.clock_advances), "count");
}

void AddEnvLayer(const TracingEnv& env, Metrics* m) {
  m->Set("sim.disk_writes", static_cast<double>(env.writes()), "count");
  m->Set("sim.disk_bytes_written_mib",
         static_cast<double>(env.bytes_written()) / kMib, "MiB");
  m->Set("gsdf.file_opens", static_cast<double>(env.file_opens()), "count");
}

void AddGboLayer(const std::vector<godiva::GboStats>& all, Metrics* m) {
  int64_t prefetched = 0;
  int64_t foreground = 0;
  int64_t hits = 0;
  int64_t evicted = 0;
  int64_t promotions = 0;
  int64_t batches = 0;
  int64_t saved = 0;
  int64_t superseded = 0;
  int64_t notifications = 0;
  int64_t peak = 0;
  double read_fn_s = 0;
  double io_busy_s = 0;
  for (const godiva::GboStats& s : all) {
    prefetched += s.units_prefetched;
    foreground += s.units_read_foreground;
    hits += s.unit_cache_hits;
    evicted += s.units_evicted;
    promotions += s.demand_promotions;
    batches += s.plan_batches_issued;
    saved += s.plan_bytes_saved;
    superseded += s.units_superseded;
    notifications += s.watch_notifications;
    peak = std::max(peak, s.peak_memory_bytes);
    read_fn_s += s.read_fn_seconds;
    io_busy_s += s.io_busy_seconds;
  }
  const int64_t loaded = prefetched + foreground;
  auto ratio = [](int64_t a, int64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  m->Set("core.units_loaded", static_cast<double>(loaded), "count");
  m->Set("core.units_evicted", static_cast<double>(evicted), "count");
  m->Set("core.prefetch_share", ratio(prefetched, loaded), "ratio");
  m->Set("core.cache_hit_ratio", ratio(hits, hits + loaded), "ratio");
  m->Set("core.demand_promotions", static_cast<double>(promotions), "count");
  m->Set("core.read_fn_modeled_s", read_fn_s, "s");
  m->Set("core.io_busy_modeled_s", io_busy_s, "s");
  m->Set("core.plan_batches_issued", static_cast<double>(batches), "count");
  m->Set("core.plan_bytes_saved_mib", static_cast<double>(saved) / kMib,
         "MiB");
  m->Set("core.units_superseded", static_cast<double>(superseded), "count");
  m->Set("core.watch_notifications", static_cast<double>(notifications),
         "count");
  m->Set("core.peak_memory_mib", static_cast<double>(peak) / kMib, "MiB");
}

void AddSpanLayer(const std::map<std::string, SpanSummary>& spans,
                  Metrics* m) {
  double env_cpu = 0;
  for (const auto& [name, summary] : spans) {
    if (name.rfind("env.", 0) == 0) env_cpu += summary.cpu_s;
  }
  m->Set("sim.env_host_s", env_cpu, "s");
  auto find = [&spans](const char* name) -> const SpanSummary* {
    auto it = spans.find(name);
    return it == spans.end() ? nullptr : &it->second;
  };
  if (const SpanSummary* s = find("gsdf.read_fn");
      s != nullptr && s->child_bytes > 0) {
    m->Set("gsdf.read_fn_self_host_us_per_mib",
           1e6 * s->self_cpu_s / (static_cast<double>(s->child_bytes) / kMib),
           "us/MiB");
  }
  if (const SpanSummary* s = find("core.plan_submit"); s != nullptr) {
    m->Set("core.plan_submit_host_us",
           1e6 * s->cpu_s / static_cast<double>(s->count), "us");
  }
  if (const SpanSummary* s = find("core.session_read"); s != nullptr) {
    m->Set("core.session_call_self_host_us",
           1e6 * s->self_cpu_s / static_cast<double>(s->count), "us");
  }
  if (const SpanSummary* s = find("viz.pushdown"); s != nullptr) {
    m->Set("viz.pushdown_host_us_per_unit",
           1e6 * s->cpu_s / static_cast<double>(s->count), "us");
  }
  if (const SpanSummary* s = find("mesh.producer_run"); s != nullptr) {
    m->Set("mesh.producer_self_host_s", s->self_cpu_s, "s");
  }
}

}  // namespace perfbench
