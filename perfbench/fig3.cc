// voyager_fig3: the paper's Figure 3 at full paper size. Each round runs
// simple/medium/complex x O/G/TG on Engle (1 CPU) and the three TG cells
// on Turing (2 CPUs) through RunVoyager, all inside one DiscreteEventScope.
// The experiment's SimEnv is built in SimMode::kDiscreteEvent.
// The seed moves the mesh's long axis by up to two node layers around the
// paper's 249, which changes every cell's data volume by under 1%.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "layers.h"
#include "mesh/dataset_spec.h"
#include "sim/event_scheduler.h"
#include "sim/platform.h"
#include "workloads/experiment.h"
#include "workloads/platform_runtime.h"
#include "workloads/test_spec.h"
#include "workloads/voyager.h"
#include "workload.h"

namespace perfbench {
namespace {

using godiva::PlatformProfile;
using godiva::workloads::CellResult;
using godiva::workloads::Variant;
using godiva::workloads::VizTestSpec;

struct CellPlan {
  VizTestSpec test;
  Variant variant;
  PlatformProfile profile;
  std::string name;  // "<test>_<variant>_<platform>"
};

std::vector<CellPlan> PlanCells() {
  std::vector<CellPlan> cells;
  const Variant kVariants[] = {Variant::kOriginal,
                               Variant::kGodivaSingleThread,
                               Variant::kGodivaMultiThread};
  const PlatformProfile engle = PlatformProfile::Engle();
  const PlatformProfile turing = PlatformProfile::Turing();
  for (const VizTestSpec& test : VizTestSpec::AllThree()) {
    for (Variant variant : kVariants) {
      cells.push_back({test, variant, engle, ""});
    }
  }
  for (const VizTestSpec& test : VizTestSpec::AllThree()) {
    cells.push_back({test, Variant::kGodivaMultiThread, turing, ""});
  }
  for (CellPlan& cell : cells) {
    cell.name = godiva::StrCat(cell.test.name, "_",
                               godiva::workloads::VariantName(cell.variant),
                               "_", cell.profile.name);
  }
  return cells;
}

const CellResult* Find(const std::vector<CellResult>& cells,
                       const std::string& test, const std::string& variant,
                       const std::string& platform) {
  for (const CellResult& cell : cells) {
    if (cell.test == test && cell.variant == variant &&
        cell.platform == platform) {
      return &cell;
    }
  }
  return nullptr;
}

// Output checks that follow from the method (paper §3, §4.2).
void CheckCells(const std::vector<CellResult>& cells, Round* round) {
  auto fail = [round](const std::string& what) {
    round->errors.push_back("fig3: " + what);
  };
  for (const CellResult& cell : cells) {
    if (!cell.skipped.empty()) {
      fail(godiva::StrCat(cell.test, "/", cell.variant, "/", cell.platform,
                          " skipped ", cell.skipped.size(), " snapshots"));
    }
    if (!cell.quarantined_files.empty()) {
      fail(godiva::StrCat(cell.test, "/", cell.variant, "/", cell.platform,
                          " quarantined ", cell.quarantined_files.size(),
                          " files"));
    }
  }
  for (const VizTestSpec& test : VizTestSpec::AllThree()) {
    const std::string& t = test.name;
    const CellResult* o = Find(cells, t, "O", "engle");
    const CellResult* g = Find(cells, t, "G", "engle");
    const CellResult* tg = Find(cells, t, "TG", "engle");
    const CellResult* tg2 = Find(cells, t, "TG", "turing");
    if (o == nullptr || g == nullptr || tg == nullptr || tg2 == nullptr) {
      fail(t + ": missing cells");
      continue;
    }
    if (g->bytes_read != tg->bytes_read || g->bytes_read != tg2->bytes_read) {
      fail(godiva::StrCat(t, ": G and TG device bytes differ (",
                          g->bytes_read, " / ", tg->bytes_read, " / ",
                          tg2->bytes_read, ")"));
    }
    if (!(o->bytes_read > g->bytes_read)) {
      fail(godiva::StrCat(t, ": O reads ", o->bytes_read,
                          " bytes, not more than G's ", g->bytes_read));
    }
    for (const CellResult* cell : {g, tg, tg2}) {
      if (cell->triangles != o->triangles) {
        fail(godiva::StrCat(t, ": ", cell->variant, "/", cell->platform,
                            " extracted ", cell->triangles,
                            " triangles, O extracted ", o->triangles));
      }
    }
    if (!(o->triangles > 0)) fail(t + ": no triangles extracted");
    if (!(tg->visible_io_seconds < g->visible_io_seconds)) {
      fail(godiva::StrFormat("%s: TG visible I/O %.3f s is not below G's "
                             "%.3f s",
                             t.c_str(), tg->visible_io_seconds,
                             g->visible_io_seconds));
    }
  }
}

// §4.2 derived metrics next to the paper's Engle values.
void PrintDerived(const std::vector<CellResult>& cells) {
  struct Paper {
    const char* test;
    double volume;
    double io_time;
    double hidden;
  };
  const Paper kPaper[] = {{"simple", 14.0, 17.6, 24.7},
                          {"medium", 24.0, 37.2, 33.1},
                          {"complex", 16.0, 20.1, 37.8}};
  std::fprintf(stderr, "%-8s %22s %22s %22s\n", "test",
               "I/O volume red. %", "O->G I/O time red. %",
               "hidden by TG %");
  for (const Paper& paper : kPaper) {
    const CellResult* o = Find(cells, paper.test, "O", "engle");
    const CellResult* g = Find(cells, paper.test, "G", "engle");
    const CellResult* tg = Find(cells, paper.test, "TG", "engle");
    if (o == nullptr || g == nullptr || tg == nullptr) return;
    std::fprintf(
        stderr, "%-8s %10.1f (paper %4.1f) %10.1f (paper %4.1f) %10.1f "
        "(paper %4.1f)\n",
        paper.test,
        godiva::workloads::PercentReduction(
            static_cast<double>(o->bytes_read),
            static_cast<double>(g->bytes_read)),
        paper.volume,
        godiva::workloads::PercentReduction(o->visible_io_seconds,
                                            g->visible_io_seconds),
        paper.io_time,
        100.0 * (g->total_seconds - tg->total_seconds) /
            g->visible_io_seconds,
        paper.hidden);
  }
}

}  // namespace

Outcome RunVoyagerFig3(const RunOptions& options) {
  Outcome outcome;
  godiva::Random rng(options.seed * 0x9E3779B97F4A7C15ULL + 3);

  godiva::workloads::ExperimentOptions experiment_options;
  experiment_options.spec = godiva::mesh::DatasetSpec::TitanIV();
  experiment_options.spec.nz += static_cast<int>(rng.NextBounded(5)) - 2;
  experiment_options.sim_mode = godiva::SimMode::kDiscreteEvent;
  const double write_start = HostSeconds();
  auto experiment = godiva::workloads::Experiment::Create(experiment_options);
  const double write_host_s = HostSeconds() - write_start;
  if (!experiment.ok()) {
    outcome.errors.push_back("dataset synthesis failed: " +
                             experiment.status().ToString());
    return outcome;
  }
  const godiva::mesh::SnapshotDataset& dataset = (*experiment)->dataset();
  godiva::SimEnv* env = (*experiment)->env();
  outcome.end_to_end.Set("setup_s", HostSeconds() - options.process_start,
                         "s");
  std::fprintf(stderr,
               "voyager_fig3: %lld nodes, %lld tets, %d blocks, %d files x "
               "%d snapshots, %.1f MiB\n",
               static_cast<long long>(dataset.spec.ExpectedNodes()),
               static_cast<long long>(dataset.spec.ExpectedTets()),
               dataset.spec.num_blocks, dataset.spec.files_per_snapshot,
               dataset.spec.num_snapshots,
               static_cast<double>(dataset.total_bytes) / (1024.0 * 1024.0));

  const std::vector<CellPlan> plan = PlanCells();
  const int snapshots = dataset.spec.num_snapshots;
  bool printed_derived = false;

  auto run_round = [&](bool traced) {
    Round round;
    InitPerLayer(&round.layer);
    Tracer tracer;
    ScopedTracer install(traced ? &tracer : nullptr);
    TracingEnv io_env(env);
    std::vector<CellResult> cells;
    godiva::DiskStats disk;
    std::vector<godiva::GboStats> gbo_stats;
    godiva::SchedulerStats sched;
    int64_t probe_ns = 0;
    const double start = HostSeconds();
    {
      godiva::DiscreteEventScope scope;
      {
        godiva::workloads::PlatformRuntime runtime(
            plan.front().profile, experiment_options.time_scale, env,
            godiva::SimMode::kDiscreteEvent);
        probe_ns = ProbeDiscreteEventEnv(env, &round);
      }
      for (const CellPlan& cell : plan) {
        godiva::workloads::PlatformRuntime runtime(
            cell.profile, experiment_options.time_scale, env,
            godiva::SimMode::kDiscreteEvent);
        runtime.SetIoEnv(&io_env);
        godiva::workloads::RunConfig config;
        config.dataset = &dataset;
        config.test = cell.test;
        config.variant = cell.variant;
        config.process = experiment_options.process;
        round.attempted += snapshots;
        const double cell_start = HostSeconds();
        auto result = godiva::workloads::RunVoyager(&runtime, config);
        round.part_host_s.push_back(HostSeconds() - cell_start);
        round.layer.Set("workloads.cell_host_s." + cell.name,
                        round.part_host_s.back(), "s");
        if (!result.ok()) {
          round.failed += snapshots;
          round.errors.push_back(cell.name + " failed: " +
                                 result.status().ToString());
          continue;
        }
        round.failed += static_cast<int64_t>(result->skipped.size());
        round.layer.Set("workloads.cell_modeled_s." + cell.name,
                        result->total_seconds, "s");
        disk.reads += result->reads;
        disk.seeks += result->seeks;
        disk.bytes_read += result->bytes_read;
        disk.modeled_read_seconds += result->disk_modeled_seconds;
        gbo_stats.push_back(result->gbo);
        cells.push_back(*std::move(result));
      }
      sched = scope.scheduler()->stats();
    }
    round.host_s = HostSeconds() - start;
    install.Stop();

    double all_cells_s = 0;
    double tg_run_s = 0;
    double tg_visible_s = 0;
    double g_run_s = 0;
    int64_t triangles = 0;
    for (const CellResult& cell : cells) {
      const std::string key =
          cell.test + "_" + cell.variant + "_" + cell.platform;
      round.modeled[key + ".total_s"] = cell.total_seconds;
      round.modeled[key + ".visible_io_s"] = cell.visible_io_seconds;
      round.modeled[key + ".bytes_read"] =
          static_cast<double>(cell.bytes_read);
      round.modeled[key + ".seeks"] = static_cast<double>(cell.seeks);
      round.modeled[key + ".triangles"] = static_cast<double>(cell.triangles);
      all_cells_s += cell.total_seconds;
      if (cell.variant == "TG") {
        tg_run_s += cell.total_seconds;
        tg_visible_s += cell.visible_io_seconds;
      }
      if (cell.variant == "G") g_run_s += cell.total_seconds;
      triangles += cell.triangles;
    }
    round.modeled["modeled_run_s"] = tg_run_s;
    round.modeled["visible_io_s"] = tg_visible_s;
    round.modeled["g_run_s"] = g_run_s;
    CheckCells(cells, &round);
    CheckDiscreteEvent(sched.virtual_seconds,
                       all_cells_s + 1e-9 * static_cast<double>(probe_ns),
                       round.host_s, &round);
    if (!printed_derived) {
      PrintDerived(cells);
      printed_derived = true;
    }

    AddDiskLayer(disk, &round.layer);
    AddSchedulerLayer(sched, &round.layer);
    AddEnvLayer(io_env, &round.layer);
    AddGboLayer(gbo_stats, &round.layer);
    AddSpanLayer(Summarize(tracer.Take()), &round.layer);
    round.layer.Set("viz.triangles", static_cast<double>(triangles), "count");
    round.layer.Set("mesh.dataset_write_host_s", write_host_s, "s");
    round.layer.Set("workloads.g_run_s", g_run_s, "s");
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
