// godiva_perfbench --workload <voyager_fig3|explore_sessions|live_ingest>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// Prints progress and check failures on stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set from a traced run. See README.md.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

// Set-up time is measured from process start.
const double kProcessStart = HostSeconds();

// The DE scheduler runs one registered thread at a time, so a replay needs
// one CPU. Pinning the process (and every thread it starts) to the CPU it
// started on makes each permit handoff a same-CPU context switch instead of
// a cross-core wake-up, whose latency varies with the host's other load.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int cpu = sched_getcpu();
  if (cpu < 0 || !CPU_ISSET(cpu, &allowed)) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    std::fprintf(stderr, "could not pin to CPU %d; running unpinned\n", cpu);
  }
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: godiva_perfbench --workload <voyager_fig3|"
               "explore_sessions|live_ingest> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               why);
  std::exit(2);
}

void PrintJson(const Outcome& outcome, bool correct, bool trace) {
  const Metrics& metrics = trace ? outcome.per_layer : outcome.end_to_end;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : metrics.items()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", value_unit.first);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           value_unit.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0)) {
        Usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace must be 0 or 1");
      }
      options.trace = value[0] == '1';
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) Usage("--seed must be a non-negative integer");
  options.process_start = kProcessStart;
  PinToOneCpu();

  Outcome outcome;
  if (workload == "voyager_fig3") {
    outcome = RunVoyagerFig3(options);
  } else if (workload == "explore_sessions") {
    outcome = RunExploreSessions(options);
  } else if (workload == "live_ingest") {
    outcome = RunLiveIngest(options);
  } else {
    Usage(("unknown workload '" + workload + "'").c_str());
  }

  const Metrics& printed = options.trace ? outcome.per_layer
                                         : outcome.end_to_end;
  for (const auto& [name, value_unit] : printed.items()) {
    if (!std::isfinite(value_unit.first)) {
      outcome.errors.push_back("metric " + name + " is not finite");
    }
  }
  for (const std::string& error : outcome.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  bool correct = outcome.errors.empty();
  std::fprintf(stderr, "%s: %s, %lld operations, %lld failed\n",
               workload.c_str(), correct ? "correct" : "INCORRECT",
               static_cast<long long>(outcome.attempted),
               static_cast<long long>(outcome.failed));
  PrintJson(outcome, correct, options.trace);
  return 0;
}

}  // namespace

std::map<std::string, double> RunRounds(
    const RunOptions& options, const std::function<Round(bool traced)>& round,
    Outcome* outcome) {
  // Round 0 pays the process's first-touch costs (page faults, allocator
  // growth), so host_run_s is taken over the later untraced rounds. Every
  // round does the same work (its modeled figures are checked equal), so a
  // slower replay of a part measures interference from the rest of the
  // host, which comes in stretches of seconds: host_run_s sums each part's
  // fastest warm replay. A traced run makes two untraced rounds before its
  // traced ones, so the tracing overhead compares warm rounds with warm
  // rounds.
  constexpr int kUntracedRounds = 2;
  std::map<std::string, double> first_modeled;
  std::vector<std::vector<double>> untraced_parts;
  std::vector<std::vector<double>> traced_parts;
  const double start = HostSeconds();
  for (int index = 0;; ++index) {
    const bool traced = options.trace && index >= kUntracedRounds;
    Round result = round(traced);
    std::fprintf(stderr, "round %d%s: %.3f s host\n", index,
                 traced ? " (traced)" : "", result.host_s);
    outcome->attempted += result.attempted;
    outcome->failed += result.failed;
    for (std::string& error : result.errors) {
      outcome->errors.push_back("round " + std::to_string(index) + ": " +
                                std::move(error));
    }
    if (index == 0) {
      first_modeled = result.modeled;
    } else {
      CompareExact(first_modeled, result.modeled,
                   "round " + std::to_string(index) +
                       (traced ? " (traced)" : "") + " vs round 0",
                   &outcome->errors);
    }
    if (result.part_host_s.empty()) result.part_host_s = {result.host_s};
    (traced ? traced_parts : untraced_parts)
        .push_back(std::move(result.part_host_s));
    if (traced || !options.trace) outcome->per_layer = result.layer;
    const bool need_traced = options.trace && traced_parts.empty();
    if (!need_traced && HostSeconds() - start >= options.seconds) break;
  }
  // Σ over parts of the part's fastest replay in `rounds`.
  auto sum_of_fastest = [](const std::vector<std::vector<double>>& rounds) {
    double sum = 0;
    for (size_t part = 0; part < rounds.front().size(); ++part) {
      double fastest = rounds.front()[part];
      for (const std::vector<double>& parts : rounds) {
        fastest = std::min(fastest, parts.at(part));
      }
      sum += fastest;
    }
    return sum;
  };
  const std::vector<std::vector<double>> warm(
      untraced_parts.begin() + (untraced_parts.size() > 1),
      untraced_parts.end());
  const double host_run_s = sum_of_fastest(warm);
  outcome->end_to_end.Set("host_run_s", host_run_s, "s");
  outcome->per_layer.Set(
      "bench.trace_overhead_s",
      traced_parts.empty() ? 0.0 : sum_of_fastest(traced_parts) - host_run_s,
      "s");
  outcome->per_layer.Set("bench.rounds",
                         static_cast<double>(untraced_parts.size() +
                                             traced_parts.size()),
                         "count");
  return first_modeled;
}

void CheckDiscreteEvent(double scheduler_virtual_s, double collected_s,
                        double host_s, Round* round) {
  // Both sides come from one virtual clock; they differ only by the
  // rounding of summed per-step durations.
  if (!(collected_s > 0) ||
      std::fabs(scheduler_virtual_s - collected_s) > 1e-6 * collected_s) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "DE guard: scheduler virtual time %.9f s != collected "
                  "modeled time %.9f s",
                  scheduler_virtual_s, collected_s);
    round->errors.push_back(line);
  }
  if (!(host_s * 2 < collected_s)) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "DE guard: host time %.3f s is not well below modeled "
                  "time %.3f s",
                  host_s, collected_s);
    round->errors.push_back(line);
  }
}

int64_t ProbeDiscreteEventEnv(godiva::SimEnv* env, Round* round) {
  constexpr char kPath[] = "perfbench_probe/env_mode";
  constexpr int64_t kBytes = 4096;
  const int64_t begin = VirtualNanos();
  auto fail = [&](const std::string& what) {
    round->errors.push_back("DE env probe: " + what);
    return VirtualNanos() - begin;
  };
  std::vector<char> buffer(2 * kBytes);
  if (!env->FileExists(kPath)) {
    auto out = env->NewWritableFile(kPath);
    if (!out.ok()) return fail(out.status().ToString());
    godiva::Status written = (*out)->Append(buffer.data(), 2 * kBytes);
    if (written.ok()) written = (*out)->Close();
    if (!written.ok()) return fail(written.ToString());
  }
  auto in = env->NewRandomAccessFile(kPath);
  if (!in.ok()) return fail(in.status().ToString());
  // The first read seeks (a charge above a millisecond, paid at once in
  // either mode); the second continues it, a charge far below one.
  godiva::Status read = (*in)->Read(0, kBytes, buffer.data());
  if (!read.ok()) return fail(read.ToString());
  const double charged_before = env->stats().modeled_read_seconds;
  const int64_t read_begin = VirtualNanos();
  read = (*in)->Read(kBytes, kBytes, buffer.data());
  const int64_t paid_ns = VirtualNanos() - read_begin;
  const double charged_s =
      env->stats().modeled_read_seconds - charged_before;
  if (!read.ok()) return fail(read.ToString());
  if (!(charged_s > 0) ||
      std::llabs(paid_ns - std::llround(charged_s * 1e9)) > 1) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "a sequential read charged %.9f s but advanced the "
                  "virtual clock by %.9f s; the env does not run in "
                  "SimMode::kDiscreteEvent",
                  charged_s, 1e-9 * static_cast<double>(paid_ns));
    return fail(line);
  }
  return VirtualNanos() - begin;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
