// Per-layer metric names and the helpers that fill them (see layers.cc).
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "core/stats.h"
#include "sim/event_scheduler.h"
#include "sim/sim_env.h"
#include "trace.h"

namespace perfbench {

// "<test>_<variant>_<platform>" for the twelve Figure 3 cells, in run order.
const std::vector<std::string>& Fig3CellNames();

// Sets every per-layer metric to 0 with its unit.
void InitPerLayer(Metrics* m);

void AddDiskLayer(const godiva::DiskStats& disk, Metrics* m);
void AddSchedulerLayer(const godiva::SchedulerStats& sched, Metrics* m);
void AddEnvLayer(const TracingEnv& env, Metrics* m);
// Sums the cache/prefetch/plan/ingest counters of every database a round
// used (core.plan_dedup_ratio is set by the caller, which knows the
// planner's request count).
void AddGboLayer(const std::vector<godiva::GboStats>& all, Metrics* m);
// Host-time metrics derived from a traced round's spans.
void AddSpanLayer(const std::map<std::string, SpanSummary>& spans,
                  Metrics* m);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
