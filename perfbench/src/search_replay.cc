#include "search_replay.h"

#include <algorithm>

namespace perfbench {

using namespace parallax;

ReplayOutcome ReplaySearch(const PlannerQuery& query, Tracer* tracer, int64_t unit) {
  ReplayOutcome out;
  SimulationArena arena;
  const int iterations = query.options.warmup_iterations + query.options.measured_iterations;
  auto measure_plan = [&](const PartitionPlan& plan) {
    Scoped span(tracer, "search.measure", unit);
    const Clock::time_point start = Clock::now();
    IterationSimulator sim(query.cluster, ApplyPlanToVariables(query.variables, plan),
                           query.gpu_compute_seconds, query.compute_chunks,
                           query.sim_config, &arena);
    const double seconds = sim.MeasureIterationSeconds(query.options.warmup_iterations,
                                                       query.options.measured_iterations);
    out.measure_ms += MsSince(start);
    out.sim_iterations += iterations;
    return seconds;
  };
  PartitionSearchOptions options = query.options;
  options.concurrency = SearchConcurrency{};

  Scoped span(tracer, "search", unit);
  const Clock::time_point start = Clock::now();
  if (!query.targets.empty()) {
    PartitionPlanSearchResult result = SearchPartitionPlan(measure_plan, query.targets, options);
    out.plan = result.plan;
    out.seconds = result.seconds;
    out.evaluations = result.evaluations;
  } else {
    auto measure = [&](int partitions) {
      return measure_plan(PartitionPlan::Uniform(partitions));
    };
    PartitionSearchResult result = SearchPartitions(measure, options);
    out.plan = PartitionPlan::Uniform(result.best_partitions);
    out.seconds = measure(result.best_partitions);
    out.evaluations = static_cast<int>(result.samples.size());
  }
  out.ms = MsSince(start);
  return out;
}

void SearchTally::Add(const ReplayOutcome& outcome) {
  ++searches;
  ms += outcome.ms;
  measure_ms += outcome.measure_ms;
  evaluations += outcome.evaluations;
  sim_iterations += outcome.sim_iterations;
}

void SearchTally::AddBatches(const BatchMeasureStats& stats) {
  batched += stats.batched_evaluations;
  waste += stats.speculative_waste;
}

void ReportSearch(const SearchTally& tally, Result& result) {
  const double n = static_cast<double>(tally.searches);
  result.Set("search.ms_per_search", tally.ms / n, "ms");
  result.Set("search.evaluations", static_cast<double>(tally.evaluations) / n, "count");
  result.Set("search.sim_iterations", static_cast<double>(tally.sim_iterations) / n, "count");
  result.Set("search.us_per_sim_iteration",
             tally.ms * 1e3 / static_cast<double>(std::max<int64_t>(tally.sim_iterations, 1)),
             "us");
  result.Set("search.waste_ratio",
             static_cast<double>(tally.waste) /
                 static_cast<double>(std::max<int64_t>(tally.batched, 1)),
             "ratio");
}

void ReportNoSearch(Result& result) {
  result.SetUnreached("search.ms_per_search", "ms");
  result.SetUnreached("search.evaluations", "count");
  result.SetUnreached("search.sim_iterations", "count");
  result.SetUnreached("search.us_per_sim_iteration", "us");
  result.SetUnreached("search.waste_ratio", "ratio");
}

void ReportNoService(Result& result) {
  result.SetUnreached("service.hit_ratio", "ratio");
  result.SetUnreached("service.hit_ms_p50", "ms");
  result.SetUnreached("service.miss_ms_p50", "ms");
  result.SetUnreached("service.searches", "count");
  result.SetUnreached("service.arenas", "count");
}

PlannerQuery StartupQuery(const GraphRunner& runner, const Graph& graph,
                          const ParallaxConfig& config) {
  const std::vector<VariableSync>& assignment = runner.assignment();
  const ClusterSpec cluster = runner.resources().ToClusterSpec(config.hardware);
  PlannerQuery query;
  for (size_t v = 0; v < assignment.size(); ++v) {
    const VariableDef& def = graph.variables()[v];
    PlannerVariable variable;
    variable.sync = assignment[v];
    variable.partitioned = assignment[v].method == SyncMethod::kPs && def.partitioner_scope;
    variable.rows = def.shape.rank() >= 1 ? def.shape.dim(0) : 1;
    if (config.search_mode == PartitionSearchMode::kPerVariable && variable.partitioned &&
        assignment[v].spec.is_sparse) {
      PartitionSearchVariable target;
      target.name = def.name;
      target.alpha = assignment[v].spec.alpha;
      target.num_elements = assignment[v].spec.num_elements;
      target.max_partitions = variable.rows;
      query.targets.push_back(target);
    }
    query.variables.push_back(std::move(variable));
  }
  query.cluster = cluster;
  query.sim_config.ps_local_aggregation = config.local_aggregation;
  query.sim_config.ps_machine_level_pulls = config.local_aggregation;
  query.sim_config.costs = config.costs;
  query.gpu_compute_seconds = config.gpu_compute_seconds;
  query.compute_chunks = config.compute_chunks;
  query.options = config.search;
  query.options.initial_partitions = cluster.num_machines;
  if (config.search_placement) {
    query.options.placement.enabled = true;
    query.options.placement.num_machines = cluster.num_machines;
    query.options.placement.num_racks = cluster.topology.num_racks;
    query.options.placement.nic_bandwidth = cluster.nic_bandwidth;
    query.options.placement.spine_bandwidth = cluster.topology.spine_bandwidth;
  }
  return query;
}

}  // namespace perfbench
