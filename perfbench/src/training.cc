// Training workloads: lm_sparse and mlp_dense (warm synchronous steps) and lm_elastic
// (adaptive re-partitioning, checkpoints, rescale and restore inside the loop).
//
// A run repeats fixed-length *episodes* until --seconds have passed: build a runner,
// take the first Step (set-up), then a fixed number of warm steps on feeds drawn from
// the seed. Episodes of one seed are bit-identical, so final_loss and sim_iter_ms are
// deterministic per seed, while the wall-clock metrics pool every episode's samples.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "search_replay.h"
#include "training.h"
#include "src/base/rng.h"
#include "src/core/api.h"
#include "src/models/trainable.h"

namespace perfbench {

using namespace parallax;

namespace {

constexpr int kLossWindow = 20;  // steps averaged for the first/final loss

double WindowMean(const std::vector<float>& losses, size_t begin, size_t end) {
  double sum = 0.0;
  for (size_t i = begin; i < end; ++i) {
    sum += losses[i];
  }
  return sum / static_cast<double>(end - begin);
}

}  // namespace

bool SameTrajectory(const Trajectory& a, const Trajectory& b) {
  if (a.losses.size() != b.losses.size() || a.clocks.size() != b.clocks.size()) {
    return false;
  }
  for (size_t i = 0; i < a.losses.size(); ++i) {
    // Bit-for-bit: == on the values, which also rejects NaN.
    if (!(a.losses[i] == b.losses[i]) || !(a.clocks[i] == b.clocks[i])) {
      return false;
    }
  }
  return true;
}

void ReportEndToEnd(const LoopStats& stats, Result& result) {
  result.Set("setup_s", Median(stats.setup_ms) / 1e3, "s");
  // Every episode times the same number of warm Steps (200 or 210); each episode is a
  // window, with 10 Steps beyond its 95th percentile.
  const size_t steps_per_episode = stats.step_ms.size() / static_cast<size_t>(stats.episodes);
  result.Set("latency_ms_p95", MedianWindowP95(stats.step_ms, steps_per_episode), "ms");
  result.Set("peak_rss_mb", PeakRssMb(), "MiB");
  result.info["latency_ms_p50"] = Percentile(stats.step_ms, 0.50);
  result.info["throughput_per_s"] =
      static_cast<double>(stats.samples) / (stats.loop_ms / 1e3);
}

void RecordTrajectory(const Trajectory& trajectory, size_t from, Result& result) {
  const std::vector<float>& losses = trajectory.losses;
  const size_t n = losses.size();
  const size_t window = std::min<size_t>(kLossWindow, (n - from) / 2);
  const double first = WindowMean(losses, from, from + window);
  const double final = WindowMean(losses, n - window, n);
  result.Check(std::isfinite(final) && final < first,
               "loss falls: first window " + std::to_string(first) + ", final window " +
                   std::to_string(final));
  result.info["final_loss"] = final;
  result.info["sim_iter_ms"] = trajectory.sim_iter_ms;
}

namespace {

// Engines in the order the runner applies them: first appearance in the plan.
std::vector<SyncEngine*> EnginesInPlanOrder(const GraphRunner& runner) {
  std::vector<SyncEngine*> engines;
  for (const std::string& name : runner.plan().engines) {
    SyncEngine* engine = runner.engine(name);
    bool seen = false;
    for (SyncEngine* e : engines) {
      seen = seen || e == engine;
    }
    if (!seen && engine != nullptr) {
      engines.push_back(engine);
    }
  }
  return engines;
}

}  // namespace

void RowCounter::Install(const GraphRunner& runner) {
  // The runner attaches its sparsity monitor, or nothing, to every engine. It owns the
  // monitor as a mutable object and only exposes it as const.
  next_ = const_cast<SparsityMonitor*>(runner.sparsity_monitor());
  for (SyncEngine* engine : EnginesInPlanOrder(runner)) {
    engine->set_observer(this);
  }
}

void RowCounter::Uninstall(const GraphRunner& runner) {
  for (SyncEngine* engine : EnginesInPlanOrder(runner)) {
    engine->set_observer(next_);
  }
}

void RowCounter::ObserveSparseStep(int variable, int64_t unique_rows, int contributions) {
  unique_rows_ += unique_rows;
  contributions_ += contributions;
  if (next_ != nullptr) {
    next_->ObserveSparseStep(variable, unique_rows, contributions);
  }
}

void RowCounter::ObserveRankAccess(int variable, int64_t unique_rows) {
  if (next_ != nullptr) {
    next_->ObserveRankAccess(variable, unique_rows);
  }
}

void DecomposedSteps(GraphRunner& runner, const Model& model, const ParallaxConfig& config,
                     Rng& rng, int first, int last, Tracer& tracer, Trajectory& traced,
                     Result& result) {
  // The benchmark's own timing plane, replaying the first Step's iteration.
  const ClusterSpec cluster_spec = runner.resources().ToClusterSpec(config.hardware);
  IterationSimConfig sim_config;
  sim_config.ps_local_aggregation = config.local_aggregation;
  sim_config.ps_machine_level_pulls = config.local_aggregation;
  sim_config.costs = config.costs;
  IterationSimulator sim(cluster_spec, runner.assignment(), config.gpu_compute_seconds,
                         config.compute_chunks, sim_config);
  Cluster cluster(cluster_spec);
  double clock = sim.SimulateIteration(cluster, 0.0);
  result.Check(runner.iterations() == 1 && clock == runner.simulated_seconds(),
               "benchmark simulator reproduces the first step's clock");

  const std::vector<SyncEngine*> engines = EnginesInPlanOrder(runner);
  const int ranks = runner.num_ranks();
  Executor executor(model.graph);
  ExecScratch scratch;
  std::vector<StepResult> step_results(static_cast<size_t>(ranks));
  for (int s = first; s <= last; ++s) {
    std::vector<FeedMap> feeds;
    {
      Scoped span(&tracer, "data", s);
      feeds = model.shards(ranks, rng, s);
    }
    Scoped step_span(&tracer, "step.decomposed", s);
    VariableStore view;
    {
      Scoped span(&tracer, "view", s);
      for (SyncEngine* engine : engines) {
        VariableStore part = engine->View();
        for (const auto& [v, value] : part.values()) {
          view.Set(v, value);
        }
      }
    }
    float loss_sum = 0.0f;
    for (int r = 0; r < ranks; ++r) {
      Scoped span(&tracer, "executor.rank", s);
      executor.RunStepInto(view, feeds[static_cast<size_t>(r)], model.loss, &scratch,
                           &step_results[static_cast<size_t>(r)]);
      loss_sum += step_results[static_cast<size_t>(r)].loss;
    }
    for (SyncEngine* engine : engines) {
      Scoped span(&tracer, "sync." + engine->name(), s);
      engine->ApplyStep(step_results, config.learning_rate);
    }
    {
      Scoped span(&tracer, "sim", s);
      clock = sim.SimulateIteration(cluster, clock);
    }
    const float loss = loss_sum / static_cast<float>(ranks);
    result.Check(std::isfinite(loss), "decomposed step loss finite");
    traced.losses.push_back(loss);
    traced.clocks.push_back(clock);
  }
}

void ReportDecomposedLayers(const Tracer& tracer, Result& result) {
  const double n =
      std::max<double>(static_cast<double>(tracer.Durations("step.decomposed").size()), 1.0);
  auto per_step = [&](const std::string& span) { return tracer.TotalMs(span) / n; };
  auto allocs = [&](const std::string& span) {
    return static_cast<double>(tracer.TotalAllocs(span)) / n;
  };
  result.Set("data.ms_per_step", Mean(tracer.Durations("data")), "ms");
  result.Set("executor.ms_per_step", per_step("executor.rank"), "ms");
  result.Set("executor.ms_per_rank_p50", Median(tracer.Durations("executor.rank")), "ms");
  result.Set("executor.allocs_per_step", allocs("executor.rank"), "count");
  result.Set("view.ms_per_step", per_step("view"), "ms");
  result.Set("view.allocs_per_step", allocs("view"), "count");
  result.Set("sync.ps.ms_per_step", per_step("sync.ps"), "ms");
  result.Set("sync.ps.allocs_per_step", allocs("sync.ps"), "count");
  result.Set("sync.ar.ms_per_step", per_step("sync.ar"), "ms");
  result.Set("sync.ar.allocs_per_step", allocs("sync.ar"), "count");
  result.Set("sim.host_us_per_iteration", per_step("sim") * 1e3, "us");
  result.Set("step.unattributed_ms", tracer.TotalSelfMs("step.decomposed") / n, "ms");
}

void ReportRows(const RowCounter& rows, double steps, Result& result) {
  const double n = std::max(steps, 1.0);
  result.Set("sync.ps.unique_rows_per_step", static_cast<double>(rows.unique_rows()) / n,
             "count");
  result.Set("sync.ps.contributions_per_step", static_cast<double>(rows.contributions()) / n,
             "count");
}

namespace {

// ---- lm_sparse / mlp_dense -----------------------------------------------------

// 16 ranks = 4 machines x 4 GPUs; episodes of 200 warm Steps.
constexpr int kMachines = 4;
constexpr int kGpusPerMachine = 4;
constexpr int kRanks = kMachines * kGpusPerMachine;
constexpr int kWarmSteps = 200;
constexpr int64_t kBatchPerRank = 32;
// Extra set-up samples per episode, so setup_s is a median over dozens of samples
// spread through the run (an lm_sparse set-up takes ~0.1 s, an mlp_dense one ~4 ms).
constexpr int kLmSetupRepeats = 2;
constexpr int kMlpSetupRepeats = 8;

// Runner defaults but for the learning rate.
ParallaxConfig StepConfig() {
  ParallaxConfig config;
  config.learning_rate = 0.5f;
  return config;
}

std::unique_ptr<GraphRunner> BuildRunner(const Model& model, const ParallaxConfig& config) {
  auto runner = RunnerBuilder(model.graph, model.loss)
                    .WithConfig(config)
                    .WithResources(ResourceSpec::Homogeneous(kMachines, kGpusPerMachine))
                    .Build();
  if (!runner.ok()) {
    std::fprintf(stderr, "Build failed: %s\n", runner.status().ToString().c_str());
    return nullptr;
  }
  return std::move(runner).value();
}

// Set-up once more on a throwaway runner: Build() + first Step, timed as a sample.
void SetupSample(const Model& model, uint64_t data_seed, LoopStats& stats, Result& result) {
  Rng rng(data_seed);
  const Clock::time_point start = Clock::now();
  std::unique_ptr<GraphRunner> runner = BuildRunner(model, StepConfig());
  result.Check(runner != nullptr, "Build");
  if (runner == nullptr) {
    return;
  }
  const float loss = runner->Step(model.shards(kRanks, rng, 0));
  stats.setup_ms.push_back(MsSince(start));
  result.Check(std::isfinite(loss), "first step loss finite");
}

// One untraced episode through GraphRunner::Step, after `setup_repeats` extra set-up
// samples.
std::unique_ptr<GraphRunner> StepEpisode(const Model& model, uint64_t data_seed,
                                         int setup_repeats, LoopStats& stats,
                                         Trajectory& trajectory, Result& result) {
  for (int i = 0; i < setup_repeats; ++i) {
    SetupSample(model, data_seed, stats, result);
  }
  Rng rng(data_seed);
  const Clock::time_point build_start = Clock::now();
  std::unique_ptr<GraphRunner> runner = BuildRunner(model, StepConfig());
  const double build_ms = MsSince(build_start);
  result.Check(runner != nullptr, "Build");
  if (runner == nullptr) {
    return nullptr;
  }
  std::vector<FeedMap> feeds = model.shards(kRanks, rng, 0);
  const Clock::time_point first_start = Clock::now();
  float loss = runner->Step(feeds);
  const double first_ms = MsSince(first_start);
  result.Check(std::isfinite(loss), "first step loss finite");
  trajectory.losses.push_back(loss);
  trajectory.clocks.push_back(runner->simulated_seconds());
  stats.build_ms.push_back(build_ms);
  stats.first_step_ms.push_back(first_ms);
  stats.setup_ms.push_back(build_ms + first_ms);

  const Clock::time_point loop_start = Clock::now();
  for (int s = 1; s <= kWarmSteps; ++s) {
    feeds = model.shards(kRanks, rng, s);
    const uint64_t allocs = AllocCount();
    const Clock::time_point step_start = Clock::now();
    loss = runner->Step(feeds);
    stats.step_ms.push_back(MsSince(step_start));
    stats.step_allocs.push_back(static_cast<double>(AllocCount() - allocs));
    result.Check(std::isfinite(loss), "step loss finite");
    trajectory.losses.push_back(loss);
    trajectory.clocks.push_back(runner->simulated_seconds());
  }
  stats.loop_ms += MsSince(loop_start);
  stats.samples += kRanks * kBatchPerRank * kWarmSteps;
  ++stats.episodes;
  trajectory.sim_iter_ms =
      runner->simulated_seconds() / static_cast<double>(runner->iterations()) * 1e3;
  return runner;
}

// One traced episode: set-up through the runner, then every warm step decomposed into
// the public calls GraphRunner::Step makes on the synchronous path.
void TracedStepEpisode(const Model& model, uint64_t data_seed, const Trajectory& reference,
                       Tracer& tracer, RowCounter& rows, SearchTally& searches,
                       Result& result) {
  const ParallaxConfig config = StepConfig();
  Rng rng(data_seed);
  std::unique_ptr<GraphRunner> runner;
  {
    Scoped span(&tracer, "setup.build", 0);
    runner = BuildRunner(model, config);
  }
  result.Check(runner != nullptr, "Build");
  if (runner == nullptr) {
    return;
  }
  const std::vector<FeedMap> feeds = model.shards(kRanks, rng, 0);
  float loss = 0.0f;
  {
    Scoped span(&tracer, "setup.first_step", 0);
    loss = runner->Step(feeds);
  }
  Trajectory traced;
  traced.losses.push_back(loss);
  traced.clocks.push_back(runner->simulated_seconds());

  // The startup search, replayed privately with a timed measure callback.
  if (runner->partition_search().has_value()) {
    const ReplayOutcome replay =
        ReplaySearch(StartupQuery(*runner, *model.graph, config), &tracer, 0);
    searches.Add(replay);
    searches.AddBatches(runner->partition_search()->batch);
    result.Check(replay.plan == runner->partition_plan() &&
                     replay.evaluations ==
                         static_cast<int>(runner->partition_search()->samples.size()),
                 "startup search replay matches the runner's plan");
  }

  rows.Install(*runner);
  DecomposedSteps(*runner, model, config, rng, 1, kWarmSteps, tracer, traced, result);
  rows.Uninstall(*runner);
  traced.sim_iter_ms = reference.sim_iter_ms;
  result.Check(SameTrajectory(traced, reference),
               "traced losses and simulated clock equal the untraced run bit-for-bit");
}

Result RunStepWorkload(const Args& args, const Model& model, int setup_repeats) {
  Result result;
  const uint64_t data_seed = args.seed * 7919 + 1;
  LoopStats stats;
  Trajectory first;
  const Clock::time_point start = Clock::now();
  while (stats.episodes < kMinEpisodes || MsSince(start) < args.seconds * 1e3) {
    Trajectory trajectory;
    std::unique_ptr<GraphRunner> runner =
        StepEpisode(model, data_seed, args.trace ? 0 : setup_repeats, stats, trajectory,
                    result);
    if (runner == nullptr) {
      return result;
    }
    if (stats.episodes == 1) {
      first = trajectory;
      RecordTrajectory(first, 0, result);
      result.info["partitions"] = runner->partition_plan().MaxPartitions();
    } else {
      result.Check(SameTrajectory(trajectory, first),
                   "episode reproduces the first episode bit-for-bit");
    }
    if (args.trace) {
      break;  // the traced run needs one untraced reference episode
    }
  }
  result.info["episodes"] = stats.episodes;
  result.info["setup_samples"] = static_cast<double>(stats.setup_ms.size());
  result.info["timed_steps"] = static_cast<double>(stats.step_ms.size());
  if (!args.trace) {
    ReportEndToEnd(stats, result);
    return result;
  }

  Tracer tracer;
  RowCounter rows;
  SearchTally searches;
  int traced_episodes = 0;
  const Clock::time_point traced_start = Clock::now();
  while (traced_episodes < 1 || MsSince(traced_start) < args.seconds * 1e3) {
    TracedStepEpisode(model, data_seed, first, tracer, rows, searches, result);
    ++traced_episodes;
  }
  result.info["traced_episodes"] = traced_episodes;
  ReportDecomposedLayers(tracer, result);
  ReportRows(rows, static_cast<double>(traced_episodes) * kWarmSteps, result);
  if (tracer.Durations("sync.ps").empty()) {  // an AllReduce-only plan has no PS engine
    for (const char* name : {"sync.ps.unique_rows_per_step", "sync.ps.contributions_per_step",
                             "sync.ps.allocs_per_step"}) {
      result.SetUnreached(name, "count");
    }
    result.SetUnreached("sync.ps.ms_per_step", "ms");
  }
  result.Set("step.allocs", Median(stats.step_allocs), "count");
  result.Set("trace.overhead_ratio",
             Median(tracer.Durations("step.decomposed")) / Median(stats.step_ms), "ratio");
  result.Set("sim.iter_ms", first.sim_iter_ms, "ms");
  if (searches.searches > 0) {
    ReportSearch(searches, result);
  } else {
    ReportNoSearch(result);  // an AllReduce-only plan has nothing to partition
  }
  result.Set("setup.build_ms", Mean(tracer.Durations("setup.build")), "ms");
  result.Set("setup.first_step_ms", Mean(tracer.Durations("setup.first_step")), "ms");
  for (const char* name : {"adapt.verdicts", "adapt.repartitions"}) {
    result.SetUnreached(name, "count");
  }
  for (const char* name : {"adapt.step_ms", "checkpoint.write_ms", "checkpoint.read_ms",
                           "rescale.ms", "rescale.migration_sim_ms"}) {
    result.SetUnreached(name, "ms");
  }
  result.SetUnreached("checkpoint.bytes", "bytes");
  ReportNoService(result);
  tracer.WriteChromeTrace(args.out_dir + "/trace-" + args.workload + ".json");
  return result;
}

}  // namespace

Result RunLmSparse(const Args& args) {
  WordLmModel lm({.vocab_size = 20000,
                  .embedding_dim = 32,
                  .batch_per_rank = kBatchPerRank,
                  .seed = args.seed});
  return RunStepWorkload(args,
                         Model{lm.graph(), lm.loss(),
                               [&lm](int ranks, Rng& rng, int64_t step) {
                                 return lm.TrainShards(ranks, rng, step);
                               }},
                         kLmSetupRepeats);
}

Result RunMlpDense(const Args& args) {
  MlpClassifierModel mlp({.batch_per_rank = kBatchPerRank, .seed = args.seed});
  return RunStepWorkload(args,
                         Model{mlp.graph(), mlp.loss(),
                               [&mlp](int ranks, Rng& rng, int64_t) {
                                 return mlp.TrainShards(ranks, rng);
                               }},
                         kMlpSetupRepeats);
}

}  // namespace perfbench
