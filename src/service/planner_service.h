// PlannerService: a process-wide, thread-safe partition-planning front-end shared by
// any number of GraphRunners — the multi-tenant counterpart of the runner's private
// search path (ROADMAP "Multi-tenant training service"; docs/planner_service.md).
//
// Three mechanisms make many concurrent tenants cheap:
//
//   1. Arena pool — SimulationArena is single-threaded state, so each query checks one
//      out RAII-style (ArenaPool::Lease, src/sim/arena_pool.h). Checkout never blocks
//      on a busy arena: the pool grows on demand and retains up to max_pooled_arenas
//      when idle, so concurrent searches are contention-free while steady-state
//      queries reuse warm task storage and collective-schedule caches.
//   2. PlanCache — searches are deterministic, so results are memoized under
//      (model, resources, options) fingerprints plus the quantized alpha vector. A hit
//      returns a plan byte-identical to a fresh search at the same key, because
//      searches run AT the bucket-representative alphas (Canonicalize).
//   3. Coalescing — duplicate in-flight queries (same key) wait on the one running
//      search instead of simulating again; PlanMany batches a whole query set, running
//      one search per distinct key across the service's shared ThreadPool and fanning
//      results back out.
//
// Each search itself is SearchPlan (below), the same function a runner without a
// service calls on its private arena: serial, one leased arena, one candidate at a
// time. Parallelism comes only from running distinct queries side by side.
//
// Runners opt in with RunnerBuilder::WithPlanner(service). The private-arena path
// remains the default and the bit-for-bit oracle the service is tested against.
#ifndef PARALLAX_SRC_SERVICE_PLANNER_SERVICE_H_
#define PARALLAX_SRC_SERVICE_PLANNER_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/base/thread_pool.h"
#include "src/core/cost_model.h"
#include "src/core/iteration_sim.h"
#include "src/core/sync_engine.h"
#include "src/service/plan_cache.h"
#include "src/sim/arena_pool.h"
#include "src/sim/cluster.h"

namespace parallax {

struct PlannerServiceOptions {
  // PlanCache entries retained (LRU past this).
  size_t cache_capacity = 256;
  // Relative width of one alpha bucket: alphas within ~quantum of each other share a
  // bucket (log-space rounding, relative representative error <= quantum/2). <= 0
  // disables quantization — every distinct alpha bit pattern is its own key.
  double alpha_quantum = 0.05;
  // Arenas retained in the free pool when idle. Checkout past this still succeeds (the
  // pool grows on demand); the excess is dropped on release instead of pooled.
  size_t max_pooled_arenas = 16;
  // Lanes of the service's shared ThreadPool, which sizes only PlanMany's fan-out
  // across distinct queries (min(queries, lanes) workers); every search runs serially
  // on its calling thread. 0 = one lane per hardware thread (uncapped — the fan-out
  // scales to the machine); 1 = fully serial (no pool is created).
  int max_workers = 0;
};

// One variable of the querying model, as the simulator will see it. `sync` carries the
// routed method and the current layout; for `partitioned` variables the searched plan
// overrides partitions/placement (row-capped via `rows`; ApplyPlanToVariables).
struct PlannerVariable {
  VariableSync sync;
  bool partitioned = false;
  int64_t rows = 1;
};

// Everything a search outcome depends on. Runners build this with
// GraphRunner::MakePlannerQuery — for their private searches and for the service
// alike; standalone callers can assemble it directly.
struct PlannerQuery {
  std::vector<PlannerVariable> variables;
  // Per-variable search targets; empty runs the uniform (single shared P) search.
  std::vector<PartitionSearchVariable> targets;
  ClusterSpec cluster;
  IterationSimConfig sim_config;
  double gpu_compute_seconds = 0.0;
  int compute_chunks = 1;
  PartitionSearchOptions options;
};

struct PlannerResult {
  PartitionPlan plan;
  double seconds = 0.0;          // measured seconds of the adopted plan (at the
                                 // bucket-representative alphas)
  double uniform_seconds = 0.0;  // measured seconds at the best uniform P
  int best_uniform_partitions = 1;
  int evaluations = 0;
  bool uniform = false;    // uniform (SearchPartitions) path produced the plan
  bool cache_hit = false;  // served from the PlanCache without simulating
  bool coalesced = false;  // shared another query's in-flight or batched search
};

struct PlannerServiceStats {
  PlanCacheStats cache;
  uint64_t queries = 0;    // Plan calls + PlanMany entries
  uint64_t searches = 0;   // actual simulation searches performed
  uint64_t coalesced = 0;  // queries that piggybacked on another query's search
  size_t pooled_arenas = 0;
  size_t total_arenas = 0;  // pooled + checked out
  // No longer populated; kept for source compatibility. Both always read 0.
  uint64_t batched_evaluations = 0;
  uint64_t speculative_waste = 0;
};

class PlannerService {
 public:
  explicit PlannerService(PlannerServiceOptions options = {});

  // RAII checkout of a pooled SimulationArena (the extracted ArenaPool's lease; the
  // historical nested-class spelling still works). The lease — and the service — must
  // outlive any simulator constructed over the arena; destruction returns the arena
  // to the pool.
  using ArenaLease = ArenaPool::Lease;

  // Answers one planning query: canonicalize, consult the cache, coalesce with any
  // identical in-flight search, otherwise search on a leased arena and memoize.
  // Thread-safe; deterministic given the query (cache_hit/coalesced flags aside).
  PlannerResult Plan(const PlannerQuery& query);

  // Batched front-end: one search per distinct key, fanned across worker threads so
  // distinct searches run concurrently on distinct pooled arenas; duplicate queries
  // share their representative's result. results[i] answers queries[i].
  std::vector<PlannerResult> PlanMany(const std::vector<PlannerQuery>& queries);

  // Snaps every alpha (variables' spec.alpha and targets' alpha) to its bucket
  // representative — the value searches actually run at. Idempotent.
  void Canonicalize(PlannerQuery* query) const;

  // The cache key of a canonicalized query. Plan() does this internally; exposed so
  // tests and tools can reason about key identity.
  PlanCacheKey KeyFor(const PlannerQuery& query) const;

  // Contention-free arena checkout (grows the pool on demand; never blocks on a busy
  // arena).
  ArenaLease AcquireArena();

  PlannerServiceStats stats() const;
  const PlannerServiceOptions& options() const { return options_; }

 private:
  // A search other queries with the same key can wait on.
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;           // guarded by mu
    CachedPlan result;           // guarded by mu; valid once done
  };

  // SearchPlan on a leased arena for a canonicalized query. Pure compute: takes no
  // service lock.
  CachedPlan Search(const PlannerQuery& query);

  const PlannerServiceOptions options_;

  // Query-path state. Lock order: mu_ may be held across PlanCache calls (the cache's
  // internal mutex nests inside); nothing here calls back out while holding mu_.
  std::mutex mu_;
  std::unordered_map<PlanCacheKey, std::shared_ptr<InFlight>, PlanCacheKeyHash>
      in_flight_;  // guarded by mu_
  PlanCache cache_;  // internally synchronized

  // Arena pool (internally synchronized) — checkouts never contend with the query
  // path's lock.
  ArenaPool arenas_;
  // Shared worker pool for PlanMany's fan-out. Null when options_.max_workers
  // resolves to one lane (fully serial service).
  std::unique_ptr<ThreadPool> pool_;

  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> searches_{0};
  std::atomic<uint64_t> coalesced_{0};
};

// Applies a searched plan to the query's base variables: partitioner-controlled
// variables get their row-capped count and (length-matching) placement stamped,
// everything else passes through. The one plan-to-variables gate: the runner's
// Repartition, Rescale and adaptive loop apply plans through it too.
std::vector<VariableSync> ApplyPlanToVariables(const std::vector<PlannerVariable>& variables,
                                               const PartitionPlan& plan);

// Prices one candidate layout: a fresh IterationSimulator over `arena` simulates the
// query's variables under `plan` and returns the mean measured iteration seconds
// (query.options' warmup/measured counts). Simulated times do not depend on what the
// arena cached before, so any arena gives the same double.
double MeasurePlan(const PlannerQuery& query, const PartitionPlan& plan,
                   SimulationArena* arena);

// The partition search (paper section 3.2) for one query, serially on `arena`, every
// candidate priced by MeasurePlan. Non-empty targets run the per-variable
// SearchPartitionPlan. Empty targets run the uniform SearchPartitions: its sweep is
// returned in `.uniform`, `plan` is Uniform(best P), and `seconds` ==
// `uniform_seconds` is the best P's measured time. The one search entry point: the
// runner calls it on its own arena, PlannerService on a leased one.
PartitionPlanSearchResult SearchPlan(const PlannerQuery& query, SimulationArena* arena);

}  // namespace parallax

#endif  // PARALLAX_SRC_SERVICE_PLANNER_SERVICE_H_
