// lm_elastic: a word LM whose active vocabulary opens up mid-training, under
// per-variable + placement search on a 2-rack cluster with adaptive re-partitioning.
// Each episode checkpoints explicitly every kCheckpointEvery steps, shrinks the
// cluster and grows it back with Rescale, and once restores the last checkpoint and
// replays the steps since — the only workload whose loop runs MaybeAdapt re-searches,
// Repartition, Rescale migration and checkpoint writes and reads.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "search_replay.h"
#include "training.h"
#include "src/core/api.h"
#include "src/graph/checkpoint.h"
#include "src/models/trainable.h"

namespace perfbench {

using namespace parallax;

namespace {

constexpr int kWarmSteps = 200;
constexpr int kDriftStep = 40;          // the active vocabulary opens up here
constexpr int kCheckpointEvery = 20;
constexpr int kShrinkStep = 100;        // Rescale 4 -> 2 machines after this step
constexpr int kGrowStep = 140;          // and back to 4 after this one
constexpr int kRestoreStep = 190;       // restore the step-180 checkpoint and replay
constexpr int kGpusPerMachine = 2;
constexpr int kMachines = 4;
constexpr int kShrunkMachines = 2;
constexpr int64_t kBatchPerRank = 64;
// Extra set-up samples per episode (~20 ms each, against ~1 s for the episode's
// Steps), so setup_s is a median over well over a hundred set-ups spread through a run.
constexpr int kSetupRepeats = 6;

ParallaxConfig ElasticConfig() {
  ParallaxConfig config;
  config.learning_rate = 0.3f;
  config.search_mode = PartitionSearchMode::kPerVariable;
  config.search_placement = true;
  config.hardware.topology.num_racks = 2;
  // Accumulation-dominated server costs, so the best partition count moves with alpha.
  // They are per element of the embedding's 128-wide rows.
  config.costs.sparse_agg_seconds_per_element = 400e-9;
  config.costs.sparse_update_seconds_per_element = 80e-9;
  config.costs.sparse_flush_seconds_per_element = 8e-9;
  config.gpu_compute_seconds = 2e-3;
  config.compute_chunks = 4;
  AdaptivePartitioningPolicy policy;
  policy.ewma_decay = 0.5;
  policy.drift_threshold = 0.3;
  policy.hysteresis = 0.02;
  policy.warmup_steps = 4;
  policy.check_interval = 4;
  policy.cooldown_steps = 20;
  config.adaptive_partitioning = policy;
  return config;
}

std::unique_ptr<GraphRunner> BuildElastic(WordLmModel& lm, const std::string& checkpoint,
                                          Result& result) {
  auto built = RunnerBuilder(lm.graph(), lm.loss())
                   .WithConfig(ElasticConfig())
                   .WithResources(ResourceSpec::Homogeneous(kMachines, kGpusPerMachine))
                   .WithCheckpoint(checkpoint, 0)
                   .Build();
  result.Check(built.ok(), "Build: " + built.status().ToString());
  if (!built.ok()) {
    return nullptr;
  }
  return std::move(built).value();
}

Model ElasticModel(WordLmModel& lm) {
  return Model{lm.graph(), lm.loss(), [&lm](int ranks, Rng& rng, int64_t step) {
                 return lm.TrainShards(ranks, rng, step);
               }};
}

// Observations of the layers only this workload reaches, summed over episodes.
struct ElasticLayers {
  std::vector<double> adapt_step_ms;  // Steps whose MaybeAdapt produced a verdict
  int verdicts = 0;
  int repartitions = 0;
  std::vector<double> migration_ms;   // simulated shard-migration charge per Rescale
};

// One episode. With a tracer, every Step, data draw and explicit call is a span.
bool ElasticEpisode(WordLmModel& lm, uint64_t data_seed, const std::string& checkpoint,
                    int setup_repeats, Tracer* tracer, RowCounter* rows, LoopStats& stats,
                    Trajectory& trajectory, ElasticLayers& layers, SearchTally* searches,
                    Result& result) {
  const ParallaxConfig config = ElasticConfig();
  for (int i = 0; i < setup_repeats; ++i) {
    Rng setup_rng(data_seed);
    const Clock::time_point setup_start = Clock::now();
    std::unique_ptr<GraphRunner> throwaway = BuildElastic(lm, checkpoint, result);
    if (throwaway == nullptr) {
      return false;
    }
    const float loss = throwaway->Step(lm.TrainShards(throwaway->num_ranks(), setup_rng, 0));
    stats.setup_ms.push_back(MsSince(setup_start));
    result.Check(std::isfinite(loss), "first step loss finite");
  }
  std::unique_ptr<GraphRunner> runner;
  Clock::time_point start = Clock::now();
  {
    Scoped span(tracer, "setup.build", 0);
    runner = BuildElastic(lm, checkpoint, result);
    if (runner == nullptr) {
      return false;
    }
  }
  const double build_ms = MsSince(start);
  Rng rng(data_seed);
  std::vector<FeedMap> feeds = lm.TrainShards(runner->num_ranks(), rng, 0);
  start = Clock::now();
  float loss = 0.0f;
  {
    Scoped span(tracer, "setup.first_step", 0);
    loss = runner->Step(feeds);
  }
  const double first_ms = MsSince(start);
  stats.build_ms.push_back(build_ms);
  stats.first_step_ms.push_back(first_ms);
  stats.setup_ms.push_back(build_ms + first_ms);
  result.Check(std::isfinite(loss), "first step loss finite");
  trajectory.losses.push_back(loss);
  trajectory.clocks.push_back(runner->simulated_seconds());
  result.Check(runner->sparsity_monitor() != nullptr, "adaptive partitioning monitors");
  if (runner->sparsity_monitor() == nullptr) {
    return false;
  }
  if (searches != nullptr) {
    const ReplayOutcome replay = ReplaySearch(StartupQuery(*runner, *lm.graph(), config),
                                              tracer, 0);
    searches->Add(replay);
    if (runner->plan_search().has_value()) {
      searches->AddBatches(runner->plan_search()->batch);
    }
    result.Check(runner->plan_search().has_value() &&
                     replay.plan == runner->partition_plan() &&
                     replay.seconds == runner->plan_search()->seconds,
                 "startup search replay matches the runner's plan");
  }

  if (rows != nullptr) {
    rows->Install(*runner);
  }
  auto step = [&](const std::vector<FeedMap>& step_feeds, int64_t id) {
    const size_t verdicts = runner->sparsity_monitor()->trail().size();
    const int repartitions = runner->adaptive_repartitions();
    const uint64_t allocs = AllocCount();
    const Clock::time_point step_start = Clock::now();
    float step_loss = 0.0f;
    {
      Scoped span(tracer, "step", id);
      step_loss = runner->Step(step_feeds);
    }
    const double ms = MsSince(step_start);
    stats.step_ms.push_back(ms);
    stats.step_allocs.push_back(static_cast<double>(AllocCount() - allocs));
    stats.samples += static_cast<int64_t>(runner->num_ranks()) * kBatchPerRank;
    if (runner->sparsity_monitor()->trail().size() > verdicts) {
      layers.adapt_step_ms.push_back(ms);
    }
    if (runner->adaptive_repartitions() > repartitions && trajectory.first_repartition < 0) {
      trajectory.first_repartition = static_cast<int>(trajectory.losses.size());
    }
    result.Check(std::isfinite(step_loss), "step loss finite");
    trajectory.losses.push_back(step_loss);
    trajectory.clocks.push_back(runner->simulated_seconds());
    return step_loss;
  };
  auto rescale = [&](int machines, int64_t id) {
    Status status;
    {
      Scoped span(tracer, "rescale", id);
      status = runner->Rescale(ResourceSpec::Homogeneous(machines, kGpusPerMachine));
    }
    result.Check(status.ok(), "Rescale: " + status.ToString());
    if (status.ok() && runner->rescales() > 0) {
      const RescaleEvent& event = runner->rescale_trail().back();
      layers.migration_ms.push_back(event.migration_seconds * 1e3);
      result.Check(event.adopted_seconds <= event.incumbent_seconds,
                   "rescale adopts a plan no slower than the incumbent");
    }
  };

  std::vector<std::vector<FeedMap>> since_checkpoint;
  std::vector<float> losses_since_checkpoint;
  const Clock::time_point loop_start = Clock::now();
  for (int s = 1; s <= kWarmSteps; ++s) {
    {
      Scoped span(tracer, "data", s);
      feeds = lm.TrainShards(runner->num_ranks(), rng, s);
    }
    losses_since_checkpoint.push_back(step(feeds, s));
    since_checkpoint.push_back(std::move(feeds));
    if (s % kCheckpointEvery == 0) {
      Status status;
      {
        Scoped span(tracer, "checkpoint.write", s);
        status = runner->Checkpoint();
      }
      result.Check(status.ok(), "Checkpoint: " + status.ToString());
      since_checkpoint.clear();
      losses_since_checkpoint.clear();
    }
    if (s == kShrinkStep) {
      rescale(kShrunkMachines, s);
    } else if (s == kGrowStep) {
      rescale(kMachines, s);
    } else if (s == kRestoreStep) {
      Status status;
      {
        Scoped span(tracer, "checkpoint.read", s);
        status = runner->RestoreFrom(checkpoint);
      }
      result.Check(status.ok(), "RestoreFrom: " + status.ToString());
      bool same = true;
      for (size_t i = 0; i < since_checkpoint.size(); ++i) {
        const float replayed = step(since_checkpoint[i], s);
        same = same && replayed == losses_since_checkpoint[i];
      }
      result.Check(same, "replay after RestoreFrom reproduces the losses bit-for-bit");
    }
  }
  stats.loop_ms += MsSince(loop_start);
  ++stats.episodes;
  if (rows != nullptr) {
    rows->Uninstall(*runner);
  }
  layers.verdicts += static_cast<int>(runner->sparsity_monitor()->trail().size());
  layers.repartitions += runner->adaptive_repartitions();
  trajectory.sim_iter_ms =
      runner->simulated_seconds() / static_cast<double>(runner->iterations()) * 1e3;
  return true;
}

}  // namespace

Result RunLmElastic(const Args& args) {
  Result result;
  // A narrow embedding keeps a warm Step at a few ms of host time: the longer a Step,
  // the larger the share of Steps a descheduled vCPU of a shared host lands in, and
  // the less steady their 95th percentile.
  WordLmModel lm({.vocab_size = 250,
                  .embedding_dim = 128,
                  .hidden_dim = 16,
                  .batch_per_rank = kBatchPerRank,
                  .zipf_exponent = 0.05,
                  .seed = args.seed,
                  .active_vocab_fraction = AlphaSchedule::StepChange(kDriftStep, 0.02, 1.0)});
  const uint64_t data_seed = args.seed * 7919 + 1;
  const std::string checkpoint = args.out_dir + "/perfbench-lm_elastic.ckpt";

  LoopStats stats;
  ElasticLayers layers;
  Trajectory first;
  const Clock::time_point start = Clock::now();
  while (stats.episodes < kMinEpisodes || MsSince(start) < args.seconds * 1e3) {
    Trajectory trajectory;
    if (!ElasticEpisode(lm, data_seed, checkpoint, args.trace ? 0 : kSetupRepeats, nullptr,
                        nullptr, stats, trajectory, layers, nullptr, result)) {
      return result;
    }
    if (stats.episodes == 1) {
      first = trajectory;
      RecordTrajectory(first, kDriftStep, result);
    } else {
      result.Check(SameTrajectory(trajectory, first),
                   "episode reproduces the first episode bit-for-bit");
    }
    if (args.trace) {
      break;
    }
  }
  result.info["episodes"] = stats.episodes;
  result.info["setup_samples"] = static_cast<double>(stats.setup_ms.size());
  result.info["timed_steps"] = static_cast<double>(stats.step_ms.size());
  result.info["verdicts_per_episode"] = static_cast<double>(layers.verdicts) / stats.episodes;
  result.info["repartitions_per_episode"] =
      static_cast<double>(layers.repartitions) / stats.episodes;
  if (!args.trace) {
    ReportEndToEnd(stats, result);
    std::remove(checkpoint.c_str());
    return result;
  }

  Tracer tracer;
  RowCounter rows;
  SearchTally searches;
  LoopStats traced_stats;
  ElasticLayers traced_layers;
  const Clock::time_point traced_start = Clock::now();
  while (traced_stats.episodes < 1 || MsSince(traced_start) < args.seconds * 1e3) {
    Trajectory trajectory;
    if (!ElasticEpisode(lm, data_seed, checkpoint, 0, &tracer, &rows, traced_stats,
                        trajectory, traced_layers, &searches, result)) {
      return result;
    }
    result.Check(SameTrajectory(trajectory, first),
                 "traced losses and simulated clock equal the untraced run bit-for-bit");
  }
  std::remove(checkpoint.c_str());
  const double episodes = traced_stats.episodes;
  const double whole_steps = static_cast<double>(tracer.Durations("step").size());
  result.info["traced_episodes"] = episodes;
  ReportRows(rows, whole_steps, result);
  result.Set("step.allocs", Median(stats.step_allocs), "count");
  result.Set("trace.overhead_ratio",
             Median(tracer.Durations("step")) / Median(stats.step_ms), "ratio");

  // Whole Steps cannot be split into layers, and decomposing them would skip
  // MaybeAdapt and so change the run. The executor, view and sync layers are timed
  // instead on one more runner of the same configuration, whose warm steps up to the
  // shrink are decomposed. They match the untraced losses, and its clock up to the
  // first Checkpoint or adaptive repartition, which charge simulated time the
  // decomposed steps do not.
  {
    std::unique_ptr<GraphRunner> runner = BuildElastic(lm, checkpoint, result);
    if (runner == nullptr) {
      return result;
    }
    Rng rng(data_seed);
    Trajectory decomposed;
    decomposed.losses.push_back(runner->Step(lm.TrainShards(runner->num_ranks(), rng, 0)));
    decomposed.clocks.push_back(runner->simulated_seconds());
    DecomposedSteps(*runner, ElasticModel(lm), ElasticConfig(), rng, 1, kShrinkStep, tracer,
                    decomposed, result);
    bool same = true;
    for (size_t i = 0; i < decomposed.losses.size(); ++i) {
      same = same && decomposed.losses[i] == first.losses[i];
      const int step = static_cast<int>(i);
      if (step <= kCheckpointEvery &&
          (first.first_repartition < 0 || step < first.first_repartition)) {
        same = same && decomposed.clocks[i] == first.clocks[i];
      }
    }
    result.Check(same, "decomposed steps equal the untraced run bit-for-bit");
  }
  ReportDecomposedLayers(tracer, result);
  // data.ms_per_step averages the whole-Step episodes' feeds too: same draws.
  result.Set("sim.iter_ms", first.sim_iter_ms, "ms");
  ReportSearch(searches, result);
  result.Set("adapt.verdicts", traced_layers.verdicts / episodes, "count");
  result.Set("adapt.repartitions", traced_layers.repartitions / episodes, "count");
  result.Set("adapt.step_ms", Mean(traced_layers.adapt_step_ms), "ms");
  result.Set("checkpoint.write_ms", Mean(tracer.Durations("checkpoint.write")), "ms");
  result.Set("checkpoint.read_ms", Mean(tracer.Durations("checkpoint.read")), "ms");
  result.Set("checkpoint.bytes", static_cast<double>(CheckpointFileBytes(*lm.graph())),
             "bytes");
  result.Set("rescale.ms", Mean(tracer.Durations("rescale")), "ms");
  result.Set("rescale.migration_sim_ms", Mean(traced_layers.migration_ms), "ms");
  result.Set("setup.build_ms", Mean(tracer.Durations("setup.build")), "ms");
  result.Set("setup.first_step_ms", Mean(tracer.Durations("setup.first_step")), "ms");
  ReportNoService(result);
  tracer.WriteChromeTrace(args.out_dir + "/trace-" + args.workload + ".json");
  return result;
}

}  // namespace perfbench
