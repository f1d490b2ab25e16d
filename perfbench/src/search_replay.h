// Private, serial replays of partition searches from outside the library: the
// benchmark's oracle for planner answers and its per-layer view of the search
// (evaluations x simulated iterations x host cost per iteration).
#ifndef PERFBENCH_SEARCH_REPLAY_H_
#define PERFBENCH_SEARCH_REPLAY_H_

#include <cstdint>

#include "common.h"
#include "src/core/api.h"
#include "src/service/planner_service.h"

namespace perfbench {

struct ReplayOutcome {
  parallax::PartitionPlan plan;
  double seconds = 0.0;      // measured seconds of the adopted plan
  int evaluations = 0;       // as the planner reports it
  int64_t sim_iterations = 0;
  double ms = 0.0;           // wall time of the whole search
  double measure_ms = 0.0;   // wall time inside measure callbacks
};

// Runs the search `query` describes — uniform when it has no targets, per-variable
// (with placement when its options ask) otherwise — serially on a private arena, the
// way PlannerService::Search answers a canonicalized query. With a tracer, the search
// and every measure callback are spans tagged `unit`.
ReplayOutcome ReplaySearch(const parallax::PlannerQuery& query, Tracer* tracer,
                           int64_t unit);

// Replayed searches of one run, summed.
struct SearchTally {
  int searches = 0;
  double ms = 0.0;
  double measure_ms = 0.0;
  int64_t evaluations = 0;
  int64_t sim_iterations = 0;
  // Speculative candidates of the searches the library itself ran (the runner's or
  // the service's), and how many of them its serial replay never asked for.
  int64_t batched = 0;
  int64_t waste = 0;

  void Add(const ReplayOutcome& outcome);
  void AddBatches(const parallax::BatchMeasureStats& stats);
};

// search.ms_per_search, search.evaluations, search.sim_iterations (per search),
// search.us_per_sim_iteration and search.waste_ratio. At least one search must have
// been replayed.
void ReportSearch(const SearchTally& tally, Result& result);
// The search metrics of a workload that never searches.
void ReportNoSearch(Result& result);
// The service metrics of a workload that runs no PlannerService.
void ReportNoService(Result& result);

// The query the runner's startup search answered, rebuilt from its public state right
// after the first Step (before any adaptive re-search moves the plan's alphas).
parallax::PlannerQuery StartupQuery(const parallax::GraphRunner& runner,
                                    const parallax::Graph& graph,
                                    const parallax::ParallaxConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_SEARCH_REPLAY_H_
