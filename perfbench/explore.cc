// explore_sessions: closed-loop clients, each with its own GboSession on
// one Gbo that runs an I/O pool behind a GboServer.
//
//  - interactive: demand Reads of per-(snapshot, file) units drawn without
//    replacement from the second half of the dataset, which no other
//    client touches, so the median read waits on I/O;
//  - batch (two clients): sliding-window GboQuerys over the first half,
//    each over a random region of one or two blocks, with von Mises and
//    displacement-magnitude push-down and CRC verification; one client
//    slides forward, the other backward, so their plans dedup against
//    each other's resident and in-flight units;
//  - background: Prefetch tickets walking the batch half ahead of the
//    forward batch client.
//
// Every path loads the same unit content (the mesh plus the nine kernel
// input fields of the unit's one block), so dedup across paths is exact.
// The seed draws the demand order, the query regions and every think time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/strings.h"
#include "common/thread.h"
#include "core/gbo.h"
#include "core/query.h"
#include "core/server.h"
#include "core/session.h"
#include "gsdf/reader.h"
#include "layers.h"
#include "mesh/dataset_spec.h"
#include "mesh/snapshot_writer.h"
#include "sim/event_scheduler.h"
#include "sim/platform.h"
#include "viz/pushdown.h"
#include "workloads/block_schema.h"
#include "workloads/platform_runtime.h"
#include "workloads/snapshot_query.h"
#include "workload.h"

namespace perfbench {
namespace {

using godiva::Gbo;
using godiva::Status;

constexpr int kSnapshots = 96;     // [0, 48) batch half, [48, 96) demand half
constexpr int kBatchHalf = 48;
constexpr int kWindow = 4;         // snapshots per batch query
constexpr int kDemandReads = 300;  // interactive reads per round
constexpr int kQueriesPerClient = 60;
constexpr int kIoThreads = 2;
constexpr int64_t kMemoryLimit = int64_t{192} * 1024 * 1024;

const std::vector<std::string>& UnitFields() {
  // Kernel inputs in the order the planner folds them in (von Mises
  // first, then displacement), so the unit map and the queries agree.
  static const std::vector<std::string> fields = {
      "sxx", "syy", "szz", "sxy", "syz", "szx", "dispx", "dispy", "dispz"};
  return fields;
}

std::vector<godiva::viz::DerivedKernel> Kernels() {
  return {godiva::viz::VonMisesKernel(),
          godiva::viz::MagnitudeKernel("disp_mag", "disp")};
}

int64_t UnitId(const std::string& unit_name) {
  int snapshot = -1;
  int file = -1;
  if (!godiva::workloads::ParseSnapshotFileUnit(unit_name, &snapshot, &file)) {
    return -1;
  }
  return int64_t{snapshot} * 1000 + file;
}

// Wraps a unit read function in a "gsdf.read_fn" span keyed by unit id.
Gbo::ReadFn Traced(Gbo::ReadFn fn, int64_t id) {
  return [fn = std::move(fn), id](Gbo* db, const std::string& name) {
    ScopedSpan span("gsdf.read_fn", id);
    return fn(db, name);
  };
}

struct QueryStep {
  int snapshot_begin;
  int block_begin;
  int block_end;
  double think_s;
};

// The seed-drawn client traces, fixed for the whole run.
struct Traces {
  std::vector<std::string> demand_units;
  std::vector<double> demand_think_s;
  std::vector<QueryStep> batch[2];
  std::vector<std::string> prefetch_units;
  std::vector<double> prefetch_think_s;
};

Traces MakeTraces(godiva::Random* rng, int blocks) {
  Traces traces;
  std::vector<std::string> demand;
  for (int s = kBatchHalf; s < kSnapshots; ++s) {
    for (int f = 0; f < 8; ++f) {
      demand.push_back(godiva::workloads::SnapshotFileUnitName(s, f));
    }
  }
  for (size_t i = demand.size(); i > 1; --i) {
    std::swap(demand[i - 1], demand[rng->NextBounded(i)]);
  }
  demand.resize(kDemandReads);
  traces.demand_units = std::move(demand);
  for (int i = 0; i < kDemandReads; ++i) {
    traces.demand_think_s.push_back(rng->NextDouble(0.004, 0.008));
  }
  const int positions = kBatchHalf - kWindow + 1;
  for (int c = 0; c < 2; ++c) {
    for (int k = 0; k < kQueriesPerClient; ++k) {
      int t = k % positions;
      if (c == 1) t = positions - 1 - t;
      // Regions alternate between one and two blocks, so every seed asks
      // for the same volume; only their positions are drawn.
      const int length = 1 + k % 2;
      const int begin =
          static_cast<int>(rng->NextBounded(blocks - length + 1));
      const int end = begin + length;
      traces.batch[c].push_back(
          {t, begin, end, rng->NextDouble(0.010, 0.016)});
    }
  }
  for (int s = 0; s < kBatchHalf; ++s) {
    for (int f = 0; f < 8; ++f) {
      traces.prefetch_units.push_back(
          godiva::workloads::SnapshotFileUnitName(s, f));
      traces.prefetch_think_s.push_back(rng->NextDouble(0.001, 0.004));
    }
  }
  return traces;
}

// Von Mises and displacement magnitude recomputed from the raw datasets,
// read with gsdf::Reader straight from the files (no Gbo, no viz).
class Reference {
 public:
  Reference(godiva::Env* raw, const godiva::mesh::SnapshotDataset* dataset)
      : raw_(raw), dataset_(dataset) {}

  godiva::Result<const std::vector<double>*> Get(int snapshot, int block,
                                                 const std::string& field) {
    auto key = std::make_tuple(snapshot, block, field);
    auto hit = cache_.find(key);
    if (hit != cache_.end()) return &hit->second;
    int file = -1;
    for (int f = 0; f < dataset_->spec.files_per_snapshot; ++f) {
      for (int32_t b : godiva::mesh::BlocksInFile(dataset_->spec, f)) {
        if (b == block) file = f;
      }
    }
    if (file < 0) return godiva::NotFoundError("block without a file");
    const std::string path =
        dataset_->SnapshotFiles(snapshot)[static_cast<size_t>(file)];
    GODIVA_ASSIGN_OR_RETURN(std::unique_ptr<godiva::gsdf::Reader> reader,
                            godiva::gsdf::Reader::Open(raw_, path));
    auto read = [&](const char* name) -> godiva::Result<std::vector<double>> {
      const std::string dataset_name =
          godiva::mesh::BlockDatasetName(block, name);
      GODIVA_ASSIGN_OR_RETURN(const godiva::gsdf::DatasetInfo* info,
                              reader->Find(dataset_name));
      std::vector<double> values(static_cast<size_t>(info->nbytes / 8));
      GODIVA_RETURN_IF_ERROR(
          reader->Read(dataset_name, values.data(), info->nbytes));
      return values;
    };
    std::vector<double> out;
    if (field == "von_mises") {
      GODIVA_ASSIGN_OR_RETURN(std::vector<double> xx, read("sxx"));
      GODIVA_ASSIGN_OR_RETURN(std::vector<double> yy, read("syy"));
      GODIVA_ASSIGN_OR_RETURN(std::vector<double> zz, read("szz"));
      GODIVA_ASSIGN_OR_RETURN(std::vector<double> xy, read("sxy"));
      GODIVA_ASSIGN_OR_RETURN(std::vector<double> yz, read("syz"));
      GODIVA_ASSIGN_OR_RETURN(std::vector<double> zx, read("szx"));
      for (size_t i = 0; i < xx.size(); ++i) {
        const double a = xx[i] - yy[i];
        const double b = yy[i] - zz[i];
        const double c = zz[i] - xx[i];
        const double shear = xy[i] * xy[i] + yz[i] * yz[i] + zx[i] * zx[i];
        out.push_back(std::sqrt((a * a + b * b + c * c) / 2 + 3 * shear));
      }
    } else if (field == "disp_mag") {
      GODIVA_ASSIGN_OR_RETURN(std::vector<double> x, read("dispx"));
      GODIVA_ASSIGN_OR_RETURN(std::vector<double> y, read("dispy"));
      GODIVA_ASSIGN_OR_RETURN(std::vector<double> z, read("dispz"));
      for (size_t i = 0; i < x.size(); ++i) {
        out.push_back(std::hypot(x[i], y[i], z[i]));
      }
    } else {
      return godiva::InvalidArgumentError("unknown derived field " + field);
    }
    return &(cache_[key] = std::move(out));
  }

 private:
  godiva::Env* raw_;
  const godiva::mesh::SnapshotDataset* dataset_;
  std::map<std::tuple<int, int, std::string>, std::vector<double>> cache_;
};

// What one client thread observed during a round.
struct ClientLog {
  int64_t elapsed_ns = 0;  // sum of its step durations (think + request)
  std::vector<double> latency_ms;
  int64_t blocked_ns = 0;  // time blocked in requests
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<godiva::DerivedResult> derived;
  int64_t units_requested = 0;
  int64_t dedup_hits = 0;
  godiva::SessionStats session;
};

}  // namespace

Outcome RunExploreSessions(const RunOptions& options) {
  Outcome outcome;
  godiva::Random rng(options.seed * 0x9E3779B97F4A7C15ULL + 5);

  godiva::mesh::DatasetSpec spec =
      godiva::mesh::DatasetSpec::TitanIVScaled(0.03);
  spec.num_snapshots = kSnapshots;
  spec.checksums = true;
  godiva::SimEnv::Options env_options;
  env_options.sim_mode = godiva::SimMode::kDiscreteEvent;
  godiva::SimEnv env(env_options);
  const double write_start = HostSeconds();
  auto written = godiva::mesh::WriteSnapshotDataset(&env, spec, "explore");
  const double write_host_s = HostSeconds() - write_start;
  if (!written.ok()) {
    outcome.errors.push_back("dataset synthesis failed: " +
                             written.status().ToString());
    return outcome;
  }
  const godiva::mesh::SnapshotDataset dataset = *std::move(written);
  if (spec.num_blocks != spec.files_per_snapshot) {
    outcome.errors.push_back("explore_sessions needs one block per file");
    return outcome;
  }
  // Direct, delay-free view of the same files for the reference values.
  std::unique_ptr<godiva::SimEnv> raw_env =
      env.Clone(godiva::SimEnv::Options{});
  Reference reference(raw_env.get(), &dataset);
  const Traces traces = MakeTraces(&rng, spec.num_blocks);
  const godiva::PlatformProfile profile = godiva::PlatformProfile::Turing();

  // Plan-time directory extents of every unit, described once here so the
  // per-round unit map costs no device reads.
  godiva::workloads::SnapshotExtentsCache unit_extents;
  godiva::workloads::SnapshotQueryOptions unit_options;
  unit_options.fields = UnitFields();
  unit_options.snapshot_begin = 0;
  unit_options.snapshot_end = kSnapshots;
  unit_options.verify_checksums = true;
  unit_options.extents_cache = &unit_extents;
  {
    godiva::DiscreteEventScope scope;
    godiva::workloads::PlatformRuntime runtime(
        profile, 1.0, &env, godiva::SimMode::kDiscreteEvent);
    auto described =
        godiva::workloads::BuildSnapshotQuery(&runtime, &dataset, unit_options);
    if (!described.ok()) {
      outcome.errors.push_back("describing units failed: " +
                               described.status().ToString());
      return outcome;
    }
  }
  outcome.end_to_end.Set("setup_s", HostSeconds() - options.process_start,
                         "s");
  std::fprintf(stderr,
               "explore_sessions: %lld nodes, %d blocks, %d snapshots, "
               "%.1f MiB, memory limit %lld MiB\n",
               static_cast<long long>(spec.ExpectedNodes()), spec.num_blocks,
               spec.num_snapshots,
               static_cast<double>(dataset.total_bytes) / (1024.0 * 1024.0),
               static_cast<long long>(kMemoryLimit >> 20));

  auto run_round = [&](bool traced) {
    Round round;
    InitPerLayer(&round.layer);
    Tracer tracer;
    ScopedTracer install(traced ? &tracer : nullptr);
    ClientLog logs[4];
    godiva::SchedulerStats sched;
    godiva::GboStats gbo_stats;
    godiva::DiskStats disk;
    int64_t probe_ns = 0;
    const double start = HostSeconds();
    {
      godiva::DiscreteEventScope scope;
      godiva::workloads::PlatformRuntime runtime(
          profile, 1.0, &env, godiva::SimMode::kDiscreteEvent);
      TracingEnv io_env(&env);
      runtime.SetIoEnv(&io_env);
      probe_ns = ProbeDiscreteEventEnv(&env, &round);
      env.ResetStats();
      godiva::GboOptions db_options;
      db_options.io_threads = kIoThreads;
      db_options.memory_limit_bytes = kMemoryLimit;
      Gbo db(db_options);
      if (Status s = godiva::workloads::DefineBlockSchema(&db); !s.ok()) {
        round.errors.push_back("schema: " + s.ToString());
        return round;
      }
      std::map<std::string, Gbo::ReadFn> unit_fns;
      {
        auto units = godiva::workloads::BuildSnapshotQuery(&runtime, &dataset,
                                                           unit_options);
        if (!units.ok()) {
          round.errors.push_back("unit map: " + units.status().ToString());
          return round;
        }
        for (godiva::QueryUnitSpec& unit : units->units) {
          unit_fns[unit.name] = Traced(std::move(unit.read_fn),
                                       UnitId(unit.name));
        }
      }
      auto server = std::make_unique<godiva::GboServer>(&db);

      auto open = [&](const char* name, godiva::PriorityClass priority,
                      ClientLog* log) -> std::unique_ptr<godiva::GboSession> {
        godiva::SessionConfig config;
        config.name = name;
        config.priority = priority;
        config.unit_namespace = "snap_";
        auto session = server->OpenSession(config);
        if (!session.ok()) {
          log->errors.push_back(std::string(name) + ": " +
                                session.status().ToString());
          return nullptr;
        }
        return std::move(*session);
      };

      auto interactive = [&](ClientLog* log) {
        auto session = open("interactive", godiva::PriorityClass::kInteractive,
                            log);
        if (session == nullptr) return;
        for (size_t k = 0; k < traces.demand_units.size(); ++k) {
          const int64_t step = VirtualNanos();
          godiva::SleepFor(godiva::FromSeconds(traces.demand_think_s[k]));
          const std::string& name = traces.demand_units[k];
          const int64_t v0 = VirtualNanos();
          Status status;
          {
            ScopedSpan span("core.session_read", UnitId(name));
            status = session->Read(name, unit_fns.at(name));
          }
          const int64_t latency = VirtualNanos() - v0;
          ++log->attempted;
          if (status.ok()) status = session->Finish(name);
          if (!status.ok()) {
            ++log->failed;
            log->errors.push_back("read " + name + ": " + status.ToString());
          }
          log->latency_ms.push_back(1e-6 * static_cast<double>(latency));
          log->blocked_ns += latency;
          log->elapsed_ns += VirtualNanos() - step;
        }
        log->session = session->stats();
      };

      auto batch = [&](int client, ClientLog* log) {
        auto session = open(client == 0 ? "batch-forward" : "batch-backward",
                            godiva::PriorityClass::kBatch, log);
        if (session == nullptr) return;
        godiva::QueryPlanner planner(&db, session.get());
        godiva::workloads::SnapshotExtentsCache extents;
        for (const QueryStep& q : traces.batch[client]) {
          const int64_t step = VirtualNanos();
          godiva::SleepFor(godiva::FromSeconds(q.think_s));
          const int64_t v0 = VirtualNanos();
          godiva::workloads::SnapshotQueryOptions query_options;
          query_options.kernels = Kernels();
          query_options.block_begin = q.block_begin;
          query_options.block_end = q.block_end;
          query_options.snapshot_begin = q.snapshot_begin;
          query_options.snapshot_end = q.snapshot_begin + kWindow;
          query_options.verify_checksums = true;
          query_options.extents_cache = &extents;
          ++log->attempted;
          Status status;
          auto query = godiva::workloads::BuildSnapshotQuery(
              &runtime, &dataset, query_options);
          if (query.ok()) {
            for (godiva::QueryUnitSpec& unit : query->units) {
              unit.read_fn = Traced(std::move(unit.read_fn), UnitId(unit.name));
            }
            query->pushdown = [fn = std::move(query->pushdown)](
                                  Gbo* db, const std::string& unit,
                                  std::vector<godiva::DerivedResult>* out) {
              ScopedSpan span("viz.pushdown", UnitId(unit));
              return fn(db, unit, out);
            };
            godiva::Result<std::unique_ptr<godiva::QueryTicket>> ticket =
                godiva::InternalError("not submitted");
            {
              ScopedSpan span("core.plan_submit");
              ticket = planner.Submit(*std::move(query));
            }
            if (ticket.ok()) {
              status = (*ticket)->WaitAll();
              const godiva::QueryPlanStats plan = (*ticket)->plan();
              log->units_requested += plan.units_requested;
              log->dedup_hits += plan.dedup_resident + plan.dedup_in_flight;
              for (godiva::DerivedResult& derived : (*ticket)->TakeDerived()) {
                log->derived.push_back(std::move(derived));
              }
              Status finished = (*ticket)->FinishAll();
              if (status.ok()) status = finished;
            } else {
              status = ticket.status();
            }
          } else {
            status = query.status();
          }
          const int64_t latency = VirtualNanos() - v0;
          if (!status.ok()) {
            ++log->failed;
            log->errors.push_back("query: " + status.ToString());
          }
          log->latency_ms.push_back(1e-6 * static_cast<double>(latency));
          log->blocked_ns += latency;
          log->elapsed_ns += VirtualNanos() - step;
        }
        log->session = session->stats();
      };

      auto background = [&](ClientLog* log) {
        auto session = open("prefetch", godiva::PriorityClass::kBackground,
                            log);
        if (session == nullptr) return;
        for (size_t k = 0; k < traces.prefetch_units.size(); ++k) {
          const int64_t step = VirtualNanos();
          godiva::SleepFor(godiva::FromSeconds(traces.prefetch_think_s[k]));
          const std::string& name = traces.prefetch_units[k];
          ++log->attempted;
          Status status = session->Prefetch(name, unit_fns.at(name));
          if (!status.ok()) {
            ++log->failed;
            log->errors.push_back("prefetch " + name + ": " +
                                  status.ToString());
          }
          log->elapsed_ns += VirtualNanos() - step;
        }
        log->session = session->stats();
      };

      {
        std::vector<godiva::Thread> clients;
        clients.emplace_back([&] { interactive(&logs[0]); });
        clients.emplace_back([&] { batch(0, &logs[1]); });
        clients.emplace_back([&] { batch(1, &logs[2]); });
        clients.emplace_back([&] { background(&logs[3]); });
        for (godiva::Thread& client : clients) client.join();
      }
      sched = scope.scheduler()->stats();
      server.reset();

      // Teardown: settle whatever prefetches are still loading, drop every
      // unit, and audit the database.
      for (const auto& [name, fn] : unit_fns) {
        auto state = db.GetUnitState(name);
        if (!state.ok()) continue;
        if (*state == godiva::UnitState::kQueued ||
            *state == godiva::UnitState::kLoading) {
          if (db.WaitUnit(name).ok()) (void)db.FinishUnit(name);
        }
        (void)db.DeleteUnit(name);
      }
      if (Status s = db.CheckInvariants(); !s.ok()) {
        round.errors.push_back("Gbo invariants after teardown: " +
                               s.ToString());
      }
      if (db.memory_usage() != 0) {
        round.errors.push_back(godiva::StrCat(
            "Gbo holds ", db.memory_usage(), " bytes after teardown"));
      }
      gbo_stats = db.stats();
      disk = env.stats();
      AddEnvLayer(io_env, &round.layer);
    }
    round.host_s = HostSeconds() - start;
    install.Stop();

    // Collected modeled time and latency samples.
    int64_t collected_ns = 0;
    int64_t blocked_ns = 0;
    std::vector<double> demand_ms = logs[0].latency_ms;
    std::vector<double> query_ms;
    int64_t units_requested = 0;
    int64_t dedup_hits = 0;
    int64_t derived_values = 0;
    for (ClientLog& log : logs) {
      collected_ns = std::max(collected_ns, log.elapsed_ns);
      blocked_ns += log.blocked_ns;
      round.attempted += log.attempted;
      round.failed += log.failed;
      for (std::string& error : log.errors) {
        round.errors.push_back(std::move(error));
      }
      units_requested += log.units_requested;
      dedup_hits += log.dedup_hits;
    }
    for (int c = 1; c <= 2; ++c) {
      query_ms.insert(query_ms.end(), logs[c].latency_ms.begin(),
                      logs[c].latency_ms.end());
    }
    const double collected_s = 1e-9 * static_cast<double>(collected_ns);
    CheckDiscreteEvent(sched.virtual_seconds,
                       collected_s + 1e-9 * static_cast<double>(probe_ns),
                       round.host_s, &round);

    // Push-down values against the independent recomputation.
    int64_t compared = 0;
    for (int c = 1; c <= 2; ++c) {
      for (const godiva::DerivedResult& derived : logs[c].derived) {
        derived_values += static_cast<int64_t>(derived.values.size());
        int snapshot = -1;
        int file = -1;
        godiva::workloads::ParseSnapshotFileUnit(derived.unit, &snapshot,
                                                 &file);
        auto want = reference.Get(snapshot, static_cast<int>(derived.key),
                                  derived.field);
        if (!want.ok()) {
          round.errors.push_back("reference: " + want.status().ToString());
          continue;
        }
        const std::vector<double>& ref = **want;
        bool same = ref.size() == derived.values.size();
        for (size_t i = 0; same && i < ref.size(); ++i) {
          same = std::fabs(ref[i] - derived.values[i]) <=
                 1e-12 * std::max(1.0, std::fabs(ref[i]));
        }
        if (!same) {
          round.errors.push_back(godiva::StrCat(
              "push-down ", derived.field, " of block ", derived.key,
              " in ", derived.unit, " differs from the recomputation"));
        }
        ++compared;
      }
    }
    if (compared == 0) round.errors.push_back("no push-down results to check");

    // The three DRR lanes ran, and admission refused nothing.
    if (logs[0].session.reads_admitted == 0) {
      round.errors.push_back("interactive lane admitted no reads");
    }
    if (logs[1].session.batch_granted + logs[2].session.batch_granted == 0) {
      round.errors.push_back("batch lane granted no tickets");
    }
    if (logs[3].session.prefetches_dispatched == 0) {
      round.errors.push_back("prefetch lane dispatched nothing");
    }
    int64_t refused = 0;
    for (const ClientLog& log : logs) {
      refused += log.session.reads_rejected + log.session.quota_rejections +
                 log.session.prefetches_shed + log.session.demand_shed;
    }
    if (refused != 0) {
      round.errors.push_back(godiva::StrCat(
          "admission refused or shed ", refused, " requests"));
    }
    if (dedup_hits == 0) round.errors.push_back("planner deduplicated nothing");
    if (demand_ms.size() < 100 || query_ms.size() < 100) {
      round.errors.push_back("too few samples for a p90");
    }

    round.modeled["modeled_run_s"] = collected_s;
    round.modeled["visible_io_s"] = 1e-9 * static_cast<double>(blocked_ns);
    round.modeled["demand_p50_ms"] = Percentile(demand_ms, 0.5);
    round.modeled["demand_p90_ms"] = Percentile(demand_ms, 0.9);
    round.modeled["query_p50_ms"] = Percentile(query_ms, 0.5);
    round.modeled["query_p90_ms"] = Percentile(query_ms, 0.9);
    round.modeled["disk_reads"] = static_cast<double>(disk.reads);
    round.modeled["disk_bytes"] = static_cast<double>(disk.bytes_read);
    round.modeled["dedup_hits"] = static_cast<double>(dedup_hits);
    round.modeled["derived_values"] = static_cast<double>(derived_values);

    AddDiskLayer(disk, &round.layer);
    AddSchedulerLayer(sched, &round.layer);
    AddGboLayer({gbo_stats}, &round.layer);
    const std::vector<Span> spans = tracer.Take();
    AddSpanLayer(Summarize(spans), &round.layer);
    // Session queue wait: a demand Read's call to the start of the read
    // function it caused (reads served by an earlier load have none).
    std::map<int64_t, int64_t> read_fn_start;
    for (const Span& span : spans) {
      if (std::strcmp(span.name, "gsdf.read_fn") == 0 &&
          !read_fn_start.count(span.request)) {
        read_fn_start[span.request] = span.vt_begin_ns;
      }
    }
    std::vector<double> waits_ms;
    for (const Span& span : spans) {
      if (std::strcmp(span.name, "core.session_read") != 0) continue;
      auto it = read_fn_start.find(span.request);
      if (it != read_fn_start.end() && it->second >= span.vt_begin_ns) {
        waits_ms.push_back(1e-6 * static_cast<double>(it->second -
                                                     span.vt_begin_ns));
      }
    }
    round.layer.Set("core.session_queue_wait_p50_ms",
                    Percentile(waits_ms, 0.5), "ms");
    round.layer.Set("core.session_queue_wait_p90_ms",
                    Percentile(waits_ms, 0.9), "ms");
    round.layer.Set("core.plan_dedup_ratio",
                    units_requested > 0
                        ? static_cast<double>(dedup_hits) /
                              static_cast<double>(units_requested)
                        : 0.0,
                    "ratio");
    round.layer.Set("viz.pushdown_values", static_cast<double>(derived_values),
                    "count");
    round.layer.Set("mesh.dataset_write_host_s", write_host_s, "s");
    round.layer.Set("workloads.demand_p50_ms", round.modeled["demand_p50_ms"],
                    "ms");
    round.layer.Set("workloads.demand_p90_ms", round.modeled["demand_p90_ms"],
                    "ms");
    round.layer.Set("workloads.query_p50_ms", round.modeled["query_p50_ms"],
                    "ms");
    round.layer.Set("workloads.query_p90_ms", round.modeled["query_p90_ms"],
                    "ms");
    return round;
  };

  std::map<std::string, double> modeled =
      RunRounds(options, run_round, &outcome);
  outcome.end_to_end.Set("peak_rss_mib", PeakRssMib(), "MiB");
  outcome.end_to_end.Set("modeled_run_s", modeled["modeled_run_s"], "s");
  outcome.end_to_end.Set("visible_io_s", modeled["visible_io_s"], "s");
  return outcome;
}

}  // namespace perfbench
