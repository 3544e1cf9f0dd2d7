// The three benchmark workloads and the round loop they share. Every
// workload builds its inputs from the seed in a set-up phase, then replays
// whole rounds of the same operations, each inside its own
// DiscreteEventScope, until the run's time is used up.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/sim_env.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  double process_start = 0;  // HostSeconds() at process start
};

// One round: the host wall time of its timed part, its modeled (DE)
// figures — identical in every round of a run, traced or not — and the
// per-layer metrics read from program counters and, when traced, spans.
struct Round {
  double host_s = 0;
  // Host wall time of each part of the round that is timed on its own, in
  // the same order every round (fig3: one per cell); empty: the round is
  // one part.
  std::vector<double> part_host_s;
  std::map<std::string, double> modeled;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  Metrics layer;
};

struct Outcome {
  std::vector<std::string> errors;
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
};

// Runs rounds until `options.seconds` of host time have passed (at least
// one; in a traced run the first two are untraced and at least one more is
// traced). Fills attempted/failed/errors, host_run_s, the per-layer
// metrics of the last traced round and the tracing overhead, and returns
// the first round's modeled figures. Fails the run when any round's
// modeled figures differ from the first's.
std::map<std::string, double> RunRounds(
    const RunOptions& options, const std::function<Round(bool traced)>& round,
    Outcome* outcome);

// The DE guard: the scheduler's virtual elapsed time must equal the
// modeled time the workload collected itself, and the round's host time
// must stay well below it. A round run outside a DiscreteEventScope (or
// with modeled delays paid in real time) fails here.
void CheckDiscreteEvent(double scheduler_virtual_s, double collected_s,
                        double host_s, Round* round);

// The env-mode guard. A SimEnv built without SimMode::kDiscreteEvent
// batches sub-millisecond disk charges even inside a DiscreteEventScope and
// bills them to whichever later access crosses a millisecond, so per-request
// DE times are blurred while both sides of the DE guard still agree. Reads a
// probe file through `env` (written on first use), which must run under a
// PlatformRuntime inside the round's scope, and fails the round unless a
// sequential sub-millisecond read advanced the virtual clock by exactly its
// disk-model charge. Returns the virtual nanoseconds the probe took, which
// the caller adds to the modeled time it collected.
int64_t ProbeDiscreteEventEnv(godiva::SimEnv* env, Round* round);

Outcome RunVoyagerFig3(const RunOptions& options);
Outcome RunExploreSessions(const RunOptions& options);
Outcome RunLiveIngest(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
