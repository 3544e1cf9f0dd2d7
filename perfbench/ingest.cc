// live_ingest: an IngestProducer writes small checksummed snapshots through
// the atomic tmp+rename path onto a disk model that charges writes and
// reads alike, publishing each with SupersedeUnit under kBlock
// backpressure; on the main thread a consumer follows a FrontierWatch,
// loads each snapshot, checks sampled values against the mesh generator,
// renders (modeled CPU) and acks. Mesh synthesis runs on the timed path,
// inside the producer. The seed draws the consumer's per-snapshot render
// cost and the sampled (block, element) pairs.
//
// Nothing exists before the producer starts, so set-up is the reference
// mesh and the generator's values at every sampled point, computed apart
// from the program.
#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/strings.h"
#include "common/thread.h"
#include "core/gbo.h"
#include "layers.h"
#include "mesh/dataset_spec.h"
#include "mesh/fields.h"
#include "mesh/snapshot_writer.h"
#include "sim/event_scheduler.h"
#include "sim/platform.h"
#include "workloads/block_schema.h"
#include "workloads/ingest.h"
#include "workloads/platform_runtime.h"
#include "workload.h"

namespace perfbench {
namespace {

using godiva::Gbo;
using godiva::Status;

constexpr int kSnapshots = 120;
constexpr int kLagWindow = 4;
constexpr int kIoThreads = 2;
constexpr int kSampledNodes = 4;
constexpr int64_t kMemoryLimit = int64_t{256} * 1024 * 1024;

const std::vector<std::string>& Quantities() {
  static const std::vector<std::string> quantities = {"stress", "velx",
                                                      "vely", "velz"};
  return quantities;
}

// The generator's values of one quantity at the sampled indices.
struct Expected {
  size_t count = 0;  // values the generator makes for the block
  std::vector<std::pair<size_t, double>> samples;  // (index, value)
};

struct SnapshotPlan {
  double render_s = 0;  // consumer's modeled CPU per snapshot
  int block = 0;        // block whose values are checked
  std::vector<Expected> expected;  // one per quantity, in Quantities() order
};

// Compares sampled values of `snapshot`'s unit with the generator's.
Status CheckSamples(Gbo* db, int snapshot, const SnapshotPlan& plan) {
  for (size_t q = 0; q < Quantities().size(); ++q) {
    const std::string& quantity = Quantities()[q];
    const Expected& expected = plan.expected[q];
    GODIVA_ASSIGN_OR_RETURN(
        std::span<double> stored,
        db->GetFieldSpan<double>(
            godiva::workloads::kBlockRecordType, quantity,
            godiva::workloads::BlockKey(plan.block, snapshot)));
    if (stored.size() != expected.count) {
      return godiva::DataLossError(godiva::StrCat(
          quantity, " of block ", plan.block, " has ", stored.size(),
          " values, the generator makes ", expected.count));
    }
    for (const auto& [i, value] : expected.samples) {
      if (stored[i] != value) {
        return godiva::DataLossError(godiva::StrCat(
            quantity, "[", i, "] of block ", plan.block, " in snapshot ",
            snapshot, " differs from the generator"));
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Outcome RunLiveIngest(const RunOptions& options) {
  Outcome outcome;
  godiva::Random rng(options.seed * 0x9E3779B97F4A7C15ULL + 7);
  godiva::mesh::DatasetSpec spec =
      godiva::mesh::DatasetSpec::TitanIVScaled(0.01);
  spec.num_snapshots = kSnapshots;
  const std::vector<godiva::mesh::MeshBlock> blocks =
      godiva::mesh::MakeBlocks(spec);
  std::vector<SnapshotPlan> plans(kSnapshots);
  for (int s = 0; s < kSnapshots; ++s) {
    SnapshotPlan& plan = plans[static_cast<size_t>(s)];
    plan.render_s = rng.NextDouble(0.010, 0.020);
    plan.block = static_cast<int>(rng.NextBounded(blocks.size()));
    std::vector<uint64_t> draws;
    for (int i = 0; i < kSampledNodes; ++i) {
      draws.push_back(rng.NextBounded(1 << 20));
    }
    for (const std::string& quantity : Quantities()) {
      const std::vector<double> values = godiva::mesh::SynthesizeQuantity(
          blocks[static_cast<size_t>(plan.block)], quantity, spec.TimeOf(s));
      Expected expected;
      expected.count = values.size();
      for (uint64_t draw : draws) {
        const size_t i = static_cast<size_t>(draw) % values.size();
        expected.samples.emplace_back(i, values[i]);
      }
      plan.expected.push_back(std::move(expected));
    }
  }
  const godiva::mesh::SnapshotDataset dataset =
      godiva::mesh::DescribeSnapshotDataset(spec, "live");
  std::unordered_map<std::string, int> snapshot_of_path;
  for (size_t i = 0; i < dataset.files.size(); ++i) {
    snapshot_of_path[dataset.files[i]] =
        static_cast<int>(i) / spec.files_per_snapshot;
  }
  std::fprintf(stderr,
               "live_ingest: %lld nodes, %d blocks, %d snapshots, lag "
               "window %d\n",
               static_cast<long long>(spec.ExpectedNodes()), spec.num_blocks,
               kSnapshots, kLagWindow);

  auto run_round = [&](bool traced) {
    Round round;
    InitPerLayer(&round.layer);
    Tracer tracer;
    ScopedTracer install(traced ? &tracer : nullptr);
    godiva::SimEnv::Options env_options;
    env_options.charge_writes = true;
    env_options.sim_mode = godiva::SimMode::kDiscreteEvent;
    godiva::SimEnv env(env_options);
    // When each snapshot's last file became visible (its publish time).
    std::mutex publish_mu;
    std::vector<int64_t> publish_ns(kSnapshots, -1);
    TracingEnv io_env(&env, [&](const std::string& to, int64_t vt_ns) {
      auto it = snapshot_of_path.find(to);
      if (it == snapshot_of_path.end()) return;
      std::lock_guard<std::mutex> lock(publish_mu);
      int64_t& at = publish_ns[static_cast<size_t>(it->second)];
      at = std::max(at, vt_ns);
    });

    int64_t elapsed_ns = 0;
    int64_t blocked_ns = 0;
    std::vector<double> lag_ms;
    godiva::SchedulerStats sched;
    godiva::GboStats gbo_stats;
    godiva::DiskStats disk;
    godiva::workloads::IngestStats ingest;
    int64_t probe_ns = 0;
    const double start = HostSeconds();
    {
      godiva::DiscreteEventScope scope;
      godiva::workloads::PlatformRuntime runtime(
          godiva::PlatformProfile::Engle(), 1.0, &env,
          godiva::SimMode::kDiscreteEvent);
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
      godiva::workloads::FrontierWatch watch(&db);
      godiva::workloads::IngestOptions ingest_options;
      ingest_options.snapshots = kSnapshots;
      ingest_options.max_frontier_lag = kLagWindow;
      ingest_options.policy = godiva::workloads::IngestBackpressure::kBlock;
      ingest_options.atomic_writes = true;
      ingest_options.checksums = true;
      ingest_options.read.verify_checksums = true;
      ingest_options.quantities = Quantities();
      godiva::workloads::IngestProducer producer(&runtime, &db, &dataset,
                                                 ingest_options);
      Status produced;
      godiva::Thread producer_thread([&] {
        ScopedSpan span("mesh.producer_run");
        produced = producer.Run();
      });

      int watch_frontier = -1;
      int producer_frontier = -1;
      for (int s = 0; s < kSnapshots; ++s) {
        const int64_t step = VirtualNanos();
        ++round.attempted;
        const std::string unit = godiva::workloads::SnapshotUnitName(s);
        Status status = watch.WaitForSnapshot(s, std::chrono::hours(1));
        const int64_t ready = VirtualNanos();
        blocked_ns += ready - step;
        if (status.ok()) {
          int64_t published = 0;
          {
            std::lock_guard<std::mutex> lock(publish_mu);
            published = publish_ns[static_cast<size_t>(s)];
          }
          if (published < 0 || published > ready) {
            round.errors.push_back(godiva::StrCat(
                "snapshot ", s, " ready before its files were renamed"));
          }
          lag_ms.push_back(1e-6 * static_cast<double>(ready - published));
          if (watch.frontier() < watch_frontier ||
              producer.frontier() < producer_frontier) {
            round.errors.push_back(godiva::StrCat(
                "frontier moved backwards at snapshot ", s));
          }
          watch_frontier = watch.frontier();
          producer_frontier = producer.frontier();
          status = db.WaitUnit(unit);
          if (status.ok()) {
            status = CheckSamples(&db, s, plans[static_cast<size_t>(s)]);
            Status finished = db.FinishUnit(unit);
            if (status.ok()) status = finished;
          }
        }
        if (!status.ok()) {
          ++round.failed;
          round.errors.push_back(godiva::StrCat("snapshot ", s, ": ",
                                                status.ToString()));
        }
        runtime.ChargeCompute(plans[s].render_s);
        producer.AckFinished(s);
        elapsed_ns += VirtualNanos() - step;
      }
      producer_thread.join();
      sched = scope.scheduler()->stats();
      if (!produced.ok()) {
        round.errors.push_back("producer: " + produced.ToString());
      }
      ingest = producer.stats();
      if (watch.failures() != 0) {
        round.errors.push_back(godiva::StrCat(watch.failures(),
                                              " snapshot loads failed"));
      }

      for (int s = 0; s < kSnapshots; ++s) {
        (void)db.DeleteUnit(godiva::workloads::SnapshotUnitName(s));
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
    }
    round.host_s = HostSeconds() - start;
    install.Stop();

    if (ingest.snapshots_published != kSnapshots ||
        gbo_stats.units_superseded != kSnapshots) {
      round.errors.push_back(godiva::StrCat(
          "published ", ingest.snapshots_published, " snapshots (",
          gbo_stats.units_superseded, " supersedes), want ", kSnapshots,
          " each exactly once"));
    }
    if (ingest.snapshots_dropped != 0 || ingest.snapshots_abandoned != 0 ||
        ingest.write_failures != 0) {
      round.errors.push_back(godiva::StrCat(
          "ingest dropped ", ingest.snapshots_dropped, ", abandoned ",
          ingest.snapshots_abandoned, ", failed ", ingest.write_failures,
          " writes"));
    }
    if (lag_ms.size() < 100) round.errors.push_back("too few lag samples");
    const double elapsed_s = 1e-9 * static_cast<double>(elapsed_ns);
    CheckDiscreteEvent(sched.virtual_seconds,
                       elapsed_s + 1e-9 * static_cast<double>(probe_ns),
                       round.host_s, &round);

    round.modeled["modeled_run_s"] = elapsed_s;
    round.modeled["visible_io_s"] = 1e-9 * static_cast<double>(blocked_ns);
    round.modeled["lag_p50_ms"] = Percentile(lag_ms, 0.5);
    round.modeled["lag_p90_ms"] = Percentile(lag_ms, 0.9);
    round.modeled["stalls"] = static_cast<double>(ingest.backpressure_stalls);
    round.modeled["disk_bytes"] = static_cast<double>(disk.bytes_read);

    // The disk model charges appends as accesses too; split them out.
    godiva::DiskStats reads = disk;
    reads.reads -= io_env.writes();
    reads.bytes_read -= io_env.bytes_written();
    AddDiskLayer(reads, &round.layer);
    AddSchedulerLayer(sched, &round.layer);
    AddEnvLayer(io_env, &round.layer);
    AddGboLayer({gbo_stats}, &round.layer);
    AddSpanLayer(Summarize(tracer.Take()), &round.layer);
    round.layer.Set("workloads.lag_p50_ms", round.modeled["lag_p50_ms"], "ms");
    round.layer.Set("workloads.lag_p90_ms", round.modeled["lag_p90_ms"], "ms");
    return round;
  };

  outcome.end_to_end.Set("setup_s", HostSeconds() - options.process_start,
                         "s");
  std::map<std::string, double> modeled =
      RunRounds(options, run_round, &outcome);
  outcome.end_to_end.Set("peak_rss_mib", PeakRssMib(), "MiB");
  outcome.end_to_end.Set("modeled_run_s", modeled["modeled_run_s"], "s");
  outcome.end_to_end.Set("visible_io_s", modeled["visible_io_s"], "s");
  return outcome;
}

}  // namespace perfbench
