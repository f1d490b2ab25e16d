// PlannerService correctness:
//  - a service plan is byte-identical (ToString + placements) to a private-arena
//    SearchPartitionPlan at the same canonicalized key — the cache never changes the
//    answer, only who pays for it,
//  - a cache hit returns the same plan state as the search that populated it,
//  - N threads issuing the same query coalesce onto ONE simulation; distinct keys
//    search separately,
//  - LRU eviction respects the configured capacity,
//  - ApplyPlanToVariables (the runner's gate too) row-caps counts and drops stale
//    placements,
//  - PlanMany answers each query exactly as a per-query Plan would, and the service's
//    worker count never changes an answer,
//  - a warm ArenaPool checkout/return and a warmed leased-arena simulation iteration
//    perform zero heap allocations,
//  - a runner using the shared planner trains bit-identically to a private-search
//    runner (monitored and unmonitored alike), and with exact-alpha keys its adaptive
//    verdicts and rescale trail match the private runner's too.
//
// Allocation counting replaces global operator new/delete for this binary; the
// counters are only inspected inside explicit single-threaded windows.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/core/api.h"
#include "src/models/trainable.h"
#include "src/service/planner_service.h"
#include "src/sim/arena_pool.h"
#include "tests/drift_scenario.h"

namespace {
std::atomic<size_t> g_alloc_count{0};
}  // namespace

// GCC pairs the replaced operator new (malloc-backed) with the replaced operator
// delete (free-backed) across inlining and then warns about the very pairing these
// replacements establish; the combination is intentional.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

// The nothrow forms too (std::stable_sort's temporary buffer uses them): left to the
// runtime, ASan would hand out its own block and flag the free() below as a mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace parallax {
namespace {

size_t AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }

ClusterSpec TinySpec() {
  ClusterSpec spec;
  spec.num_machines = 4;
  spec.gpus_per_machine = 2;
  spec.cores_per_machine = 4;
  spec.nic_bandwidth = 1e9;
  spec.nic_latency = 1e-6;
  spec.pcie_bandwidth = 4e9;
  spec.pcie_latency = 1e-6;
  return spec;
}

// A hybrid two-sparse-one-dense model, embedding searchable per-variable.
PlannerQuery MakeQuery(double embedding_alpha, double softmax_alpha = 0.05) {
  PlannerQuery query;
  VariableSync embedding;
  embedding.spec = {"embedding", 640'000, 64, true, embedding_alpha};
  embedding.method = SyncMethod::kPs;
  query.variables.push_back({embedding, /*partitioned=*/true, /*rows=*/10'000});
  VariableSync softmax;
  softmax.spec = {"softmax", 320'000, 64, true, softmax_alpha};
  softmax.method = SyncMethod::kPs;
  query.variables.push_back({softmax, /*partitioned=*/true, /*rows=*/5'000});
  VariableSync dense;
  dense.spec = {"dense", 500'000, 1, false, 1.0};
  dense.method = SyncMethod::kArAllReduce;
  query.variables.push_back({dense, /*partitioned=*/false, /*rows=*/1});

  PartitionSearchVariable emb_target;
  emb_target.name = "embedding";
  emb_target.alpha = embedding_alpha;
  emb_target.num_elements = 640'000;
  emb_target.max_partitions = 10'000;
  query.targets.push_back(emb_target);
  PartitionSearchVariable sm_target;
  sm_target.name = "softmax";
  sm_target.alpha = softmax_alpha;
  sm_target.num_elements = 320'000;
  sm_target.max_partitions = 5'000;
  query.targets.push_back(sm_target);

  query.cluster = TinySpec();
  query.sim_config.ps_local_aggregation = true;
  query.sim_config.ps_machine_level_pulls = true;
  query.gpu_compute_seconds = 4e-3;
  query.compute_chunks = 4;
  query.options.initial_partitions = 4;
  query.options.warmup_iterations = 2;
  query.options.measured_iterations = 2;
  return query;
}

// The private-arena oracle: exactly the search the service would run for the
// canonicalized query, on a fresh arena with no cache anywhere.
PartitionPlanSearchResult PrivateSearch(const PlannerQuery& canonical) {
  SimulationArena arena;
  auto measure_plan = [&](const PartitionPlan& plan) {
    IterationSimulator sim(canonical.cluster,
                           ApplyPlanToVariables(canonical.variables, plan),
                           canonical.gpu_compute_seconds, canonical.compute_chunks,
                           canonical.sim_config, &arena);
    return sim.MeasureIterationSeconds(canonical.options.warmup_iterations,
                                       canonical.options.measured_iterations);
  };
  return SearchPartitionPlan(measure_plan, canonical.targets, canonical.options);
}

void ExpectPlansIdentical(const PartitionPlan& a, const PartitionPlan& b) {
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(a.placements(), b.placements());
  EXPECT_TRUE(a == b);
}

TEST(PlannerServiceTest, PlanMatchesPrivateArenaSearchByteForByte) {
  PlannerService service;
  PlannerQuery query = MakeQuery(0.02);
  PlannerResult result = service.Plan(query);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_FALSE(result.uniform);

  PlannerQuery canonical = query;
  service.Canonicalize(&canonical);
  PartitionPlanSearchResult oracle = PrivateSearch(canonical);
  ExpectPlansIdentical(result.plan, oracle.plan);
  EXPECT_EQ(result.seconds, oracle.seconds);
  EXPECT_EQ(result.uniform_seconds, oracle.uniform_seconds);
  EXPECT_EQ(result.evaluations, oracle.evaluations);
}

TEST(PlannerServiceTest, CacheHitReturnsIdenticalPlanState) {
  PlannerService service;
  PlannerQuery query = MakeQuery(0.02);
  PlannerResult first = service.Plan(query);
  PlannerResult second = service.Plan(query);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  ExpectPlansIdentical(first.plan, second.plan);
  EXPECT_EQ(first.seconds, second.seconds);
  EXPECT_EQ(first.uniform_seconds, second.uniform_seconds);
  EXPECT_EQ(first.evaluations, second.evaluations);
  EXPECT_EQ(service.stats().searches, 1u);
  EXPECT_EQ(service.stats().cache.hits, 1u);
}

TEST(PlannerServiceTest, NearbyAlphasShareABucketDistantOnesDoNot) {
  PlannerService service;  // default alpha_quantum = 0.05
  PlannerQuery a = MakeQuery(0.0200);
  PlannerQuery b = MakeQuery(0.0201);  // within one bucket of a
  PlannerQuery c = MakeQuery(0.0800);  // far outside
  service.Canonicalize(&a);
  service.Canonicalize(&b);
  service.Canonicalize(&c);
  EXPECT_EQ(service.KeyFor(a), service.KeyFor(b));
  EXPECT_FALSE(service.KeyFor(a) == service.KeyFor(c));
  // Canonicalize is idempotent: the representative maps to itself.
  PlannerQuery twice = a;
  service.Canonicalize(&twice);
  EXPECT_EQ(twice.variables[0].sync.spec.alpha, a.variables[0].sync.spec.alpha);
  EXPECT_EQ(twice.targets[0].alpha, a.targets[0].alpha);
  // The representative stays within ~quantum/2 relative error of the raw alpha.
  EXPECT_NEAR(a.variables[0].sync.spec.alpha, 0.02, 0.02 * 0.05);
}

TEST(PlannerServiceTest, ConcurrentIdenticalQueriesCoalesceToOneSearch) {
  PlannerService service;
  PlannerQuery query = MakeQuery(0.02);
  constexpr int kThreads = 8;
  std::vector<PlannerResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { results[static_cast<size_t>(t)] = service.Plan(query); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    ExpectPlansIdentical(results[0].plan, results[static_cast<size_t>(t)].plan);
    EXPECT_EQ(results[0].seconds, results[static_cast<size_t>(t)].seconds);
  }
  PlannerServiceStats stats = service.stats();
  EXPECT_EQ(stats.searches, 1u) << "duplicate in-flight queries must share one search";
  EXPECT_EQ(stats.queries, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.coalesced + stats.cache.hits + stats.searches,
            static_cast<uint64_t>(kThreads));
}

TEST(PlannerServiceTest, ConcurrentDistinctQueriesSearchSeparatelyAndMatchOracles) {
  PlannerService service;
  const std::vector<double> alphas = {0.01, 0.03, 0.1, 0.3};
  std::vector<PlannerResult> results(alphas.size());
  std::vector<std::thread> threads;
  threads.reserve(alphas.size());
  for (size_t t = 0; t < alphas.size(); ++t) {
    threads.emplace_back(
        [&, t] { results[t] = service.Plan(MakeQuery(alphas[t])); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(service.stats().searches, alphas.size());
  for (size_t t = 0; t < alphas.size(); ++t) {
    PlannerQuery canonical = MakeQuery(alphas[t]);
    service.Canonicalize(&canonical);
    ExpectPlansIdentical(results[t].plan, PrivateSearch(canonical).plan);
  }
}

TEST(PlannerServiceTest, PlanManyCoalescesDuplicatesWithinTheBatch) {
  PlannerService service;
  std::vector<PlannerQuery> queries;
  for (int i = 0; i < 6; ++i) {
    queries.push_back(MakeQuery(i % 2 == 0 ? 0.02 : 0.2));  // two distinct keys
  }
  std::vector<PlannerResult> results = service.PlanMany(queries);
  ASSERT_EQ(results.size(), queries.size());
  EXPECT_EQ(service.stats().searches, 2u);
  EXPECT_EQ(service.stats().queries, 6u);
  for (size_t i = 2; i < results.size(); ++i) {
    ExpectPlansIdentical(results[i].plan, results[i - 2].plan);
  }
}

TEST(PlannerServiceTest, EvictionRespectsCapacity) {
  PlannerServiceOptions options;
  options.cache_capacity = 2;
  PlannerService service(options);
  service.Plan(MakeQuery(0.01));
  service.Plan(MakeQuery(0.05));
  service.Plan(MakeQuery(0.3));  // evicts the 0.01 entry (LRU)
  PlanCacheStats cache = service.stats().cache;
  EXPECT_EQ(cache.size, 2u);
  EXPECT_EQ(cache.capacity, 2u);
  EXPECT_EQ(cache.evictions, 1u);
  // The evicted key misses (and re-searches); the most recent keys still hit.
  PlannerResult again = service.Plan(MakeQuery(0.3));
  EXPECT_TRUE(again.cache_hit);
  PlannerResult evicted = service.Plan(MakeQuery(0.01));
  EXPECT_FALSE(evicted.cache_hit);
  EXPECT_EQ(service.stats().searches, 4u);
}

TEST(PlannerServiceTest, ApplyPlanToVariablesReplicatesRowCapAndPlacementGate) {
  PlannerQuery query = MakeQuery(0.02);
  PartitionPlan plan = PartitionPlan::Uniform(1);
  plan.Set("embedding", 20'000);  // above the 10'000-row cap
  plan.Set("softmax", 4);
  plan.SetPlacement("softmax", {0, 1, 2, 3});
  plan.SetPlacement("embedding", {0, 1});  // stale length: must be dropped by the cap
  std::vector<VariableSync> applied = ApplyPlanToVariables(query.variables, plan);
  ASSERT_EQ(applied.size(), 3u);
  EXPECT_EQ(applied[0].partitions, 10'000);  // row-capped
  EXPECT_TRUE(applied[0].placement.empty());
  EXPECT_EQ(applied[1].partitions, 4);
  EXPECT_EQ(applied[1].placement, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(applied[2].partitions, 1);  // non-partitioned passes through
}

TEST(PlannerServiceTest, ArenaPoolGrowsOnDemandAndRetainsUpToCap) {
  PlannerServiceOptions options;
  options.max_pooled_arenas = 2;
  PlannerService service(options);
  {
    PlannerService::ArenaLease a = service.AcquireArena();
    PlannerService::ArenaLease b = service.AcquireArena();
    PlannerService::ArenaLease c = service.AcquireArena();
    EXPECT_NE(a.get(), nullptr);
    EXPECT_NE(b.get(), nullptr);
    EXPECT_NE(c.get(), nullptr);
    EXPECT_EQ(service.stats().total_arenas, 3u);
    EXPECT_EQ(service.stats().pooled_arenas, 0u);
  }
  // Releases past the cap are dropped, not pooled.
  EXPECT_EQ(service.stats().pooled_arenas, 2u);
  EXPECT_EQ(service.stats().total_arenas, 2u);
  // A pooled arena is reused, not reallocated.
  PlannerService::ArenaLease reused = service.AcquireArena();
  EXPECT_NE(reused.get(), nullptr);
  EXPECT_EQ(service.stats().total_arenas, 2u);
  EXPECT_EQ(service.stats().pooled_arenas, 1u);
}

// ---- pooled searches ----
// PlanMany fan-out and the service's worker pool. These keep the ParallelSearchTest
// suite name they have always been reported under.

TEST(ParallelSearchTest, PlannerServicePlanManyMatchesPerQueryPlans) {
  PlannerServiceOptions options;
  options.max_workers = 4;
  PlannerService service(options);

  std::vector<PlannerQuery> queries;
  for (double alpha : {0.02, 0.1, 0.3, 0.02}) {  // one duplicate key
    queries.push_back(MakeQuery(alpha));
  }
  std::vector<PlannerResult> batched = service.PlanMany(queries);
  ASSERT_EQ(batched.size(), queries.size());

  PlannerService reference;  // defaults; answers must match regardless of its workers
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    PlannerResult single = reference.Plan(queries[i]);
    ExpectPlansIdentical(batched[i].plan, single.plan);
    EXPECT_EQ(batched[i].seconds, single.seconds);
    EXPECT_EQ(batched[i].uniform_seconds, single.uniform_seconds);
  }
  // The duplicate coalesced onto its representative's search.
  EXPECT_EQ(service.stats().searches, 3u);
}

TEST(ParallelSearchTest, PlannerServiceParallelPlanMatchesSerialServiceAndOracle) {
  PlannerServiceOptions pooled_options;
  pooled_options.max_workers = 4;
  PlannerService pooled(pooled_options);
  PlannerServiceOptions serial_options;
  serial_options.max_workers = 1;
  PlannerService serial(serial_options);

  PlannerQuery query = MakeQuery(0.02);
  PlannerResult from_pooled = pooled.Plan(query);
  PlannerResult from_serial = serial.Plan(query);
  ExpectPlansIdentical(from_pooled.plan, from_serial.plan);
  EXPECT_EQ(from_pooled.seconds, from_serial.seconds);
  EXPECT_EQ(from_pooled.uniform_seconds, from_serial.uniform_seconds);
  EXPECT_EQ(from_pooled.evaluations, from_serial.evaluations);

  PlannerQuery canonical = query;
  pooled.Canonicalize(&canonical);
  PartitionPlanSearchResult oracle = PrivateSearch(canonical);
  ExpectPlansIdentical(from_pooled.plan, oracle.plan);
  EXPECT_EQ(from_pooled.seconds, oracle.seconds);
  EXPECT_EQ(from_pooled.evaluations, oracle.evaluations);

  // Every search is serial: the source-compatibility counters stay at zero.
  for (const PlannerService* service : {&pooled, &serial}) {
    EXPECT_EQ(service->stats().batched_evaluations, 0u);
    EXPECT_EQ(service->stats().speculative_waste, 0u);
  }
}

TEST(ParallelSearchTest, WarmArenaCheckoutAndSimulationAreAllocationFree) {
  ArenaPool arenas;
  const PlannerQuery query = MakeQuery(0.02);
  Cluster cluster(query.cluster);
  SimTime t = 0.0;
  {
    ArenaPool::Lease lease = arenas.Acquire();  // grows the pool: allocates
    IterationSimulator sim(query.cluster,
                           ApplyPlanToVariables(query.variables, PartitionPlan::Uniform(16)),
                           query.gpu_compute_seconds, query.compute_chunks,
                           query.sim_config, lease.get());
    t = sim.SimulateIteration(cluster, t);
    t = sim.SimulateIteration(cluster, t);  // warm: task storage + schedule cache built

    const size_t before = AllocCount();
    t = sim.SimulateIteration(cluster, t);
    EXPECT_EQ(AllocCount() - before, 0u)
        << "warmed leased-arena simulation iteration allocated";
  }  // release pools the arena (and reserves the free-list slot)

  const size_t before = AllocCount();
  {
    ArenaPool::Lease lease = arenas.Acquire();  // pops the pooled arena
    EXPECT_NE(lease.get(), nullptr);
  }  // returns it to the reserved slot
  EXPECT_EQ(AllocCount() - before, 0u) << "warm arena checkout/return allocated";
  EXPECT_EQ(arenas.pooled(), 1u);
  EXPECT_EQ(arenas.total(), 1u);
}

// ---- runner integration ----

WordLmModel::Options SmallLm(uint64_t seed) {
  return {.vocab_size = 120, .embedding_dim = 8, .hidden_dim = 12,
          .batch_per_rank = 16, .seed = seed};
}

ParallaxConfig FastConfig() {
  ParallaxConfig config;
  config.learning_rate = 0.4f;
  config.search.warmup_iterations = 2;
  config.search.measured_iterations = 2;
  config.search_mode = PartitionSearchMode::kPerVariable;
  return config;
}

TEST(PlannerServiceRunnerTest, SharedPlannerRunnerIsBitIdenticalToPrivateSearch) {
  // Two identical sessions, one routed through a shared planner: every loss must match
  // bitwise (plans never affect numerics; the service must not either), and the second
  // tenant's startup search must be served from the cache.
  auto service = std::make_shared<PlannerService>();
  WordLmModel model_private(SmallLm(601));
  WordLmModel model_shared(SmallLm(601));
  GraphRunner private_runner(model_private.graph(), model_private.loss(),
                             ResourceSpec::Homogeneous(2, 2), FastConfig());
  ParallaxConfig shared_config = FastConfig();
  shared_config.planner = service;
  GraphRunner shared_runner(model_shared.graph(), model_shared.loss(),
                            ResourceSpec::Homogeneous(2, 2), shared_config);
  Rng rng_a(61);
  Rng rng_b(61);
  for (int step = 0; step < 12; ++step) {
    float a = private_runner.Step(model_private.TrainShards(4, rng_a));
    float b = shared_runner.Step(model_shared.TrainShards(4, rng_b));
    EXPECT_EQ(a, b) << "step " << step;
  }
  EXPECT_EQ(shared_runner.partition_plan().ToString(),
            private_runner.partition_plan().ToString());
  EXPECT_EQ(service->stats().searches, 1u);

  // A third tenant with the same model shape hits the cache outright.
  WordLmModel model_third(SmallLm(601));
  GraphRunner third_runner(model_third.graph(), model_third.loss(),
                           ResourceSpec::Homogeneous(2, 2), shared_config);
  Rng rng_c(61);
  third_runner.Step(model_third.TrainShards(4, rng_c));
  EXPECT_EQ(service->stats().searches, 1u);
  EXPECT_GE(service->stats().cache.hits, 1u);
  EXPECT_EQ(third_runner.partition_plan().ToString(),
            shared_runner.partition_plan().ToString());
}

TEST(PlannerServiceRunnerTest, MonitoredSharedPlannerRunnerMatchesUnmonitoredPrivate) {
  // The adaptive loop re-searches through the service; numerics must stay bit-identical
  // to an unmonitored private-search run regardless of what the planner answers.
  auto service = std::make_shared<PlannerService>();
  WordLmModel model_plain(SmallLm(602));
  WordLmModel model_monitored(SmallLm(602));
  GraphRunner plain(model_plain.graph(), model_plain.loss(),
                    ResourceSpec::Homogeneous(2, 2), FastConfig());
  ParallaxConfig monitored_config = FastConfig();
  monitored_config.planner = service;
  AdaptivePartitioningPolicy policy;
  policy.check_interval = 4;
  policy.warmup_steps = 4;
  monitored_config.adaptive_partitioning = policy;
  GraphRunner monitored(model_monitored.graph(), model_monitored.loss(),
                        ResourceSpec::Homogeneous(2, 2), monitored_config);
  Rng rng_a(62);
  Rng rng_b(62);
  for (int step = 0; step < 16; ++step) {
    float a = plain.Step(model_plain.TrainShards(4, rng_a));
    float b = monitored.Step(model_monitored.TrainShards(4, rng_b));
    EXPECT_EQ(a, b) << "step " << step;
  }
}

// One drifting-LM session through adaptive re-searches and a 4 -> 2 -> 4 rescale: the
// loss curve, the simulated clock and both decision trails.
struct ElasticRun {
  std::vector<float> losses;
  double simulated_seconds = 0.0;
  std::vector<AdaptationVerdict> verdicts;
  std::vector<RescaleEvent> rescales;
};

enum class ElasticSearch { kUniform, kPerVariable, kPlacedOnTwoRacks };

ElasticRun TrainElasticDriftingLm(ElasticSearch search,
                                  std::shared_ptr<PlannerService> planner) {
  WordLmModel model(DriftingLm(31, 12));
  RunnerBuilder builder(model.graph(), model.loss());
  AdaptivePartitioningPolicy policy;
  policy.check_interval = 2;
  policy.warmup_steps = 4;
  builder.WithResources(ResourceSpec::Homogeneous(4, 1))
      .WithLearningRate(0.3f)
      .WithSyncCosts(AccumulationDominatedCosts())
      .WithCompute(2e-3, 4)
      .WithSearch({.warmup_iterations = 2, .measured_iterations = 2})
      .WithAdaptivePartitioning(policy);
  if (search != ElasticSearch::kUniform) {
    builder.WithSearchMode(PartitionSearchMode::kPerVariable);
  }
  if (search == ElasticSearch::kPlacedOnTwoRacks) {
    ClusterSpec hardware = ClusterSpec::Paper();
    hardware.topology.num_racks = 2;
    builder.WithHardware(hardware).WithPlacementSearch();
  }
  if (planner != nullptr) {
    builder.WithPlanner(std::move(planner));
  }
  StatusOr<std::unique_ptr<GraphRunner>> built = builder.Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  GraphRunner& runner = *built.value();
  ElasticRun run;
  Rng rng(31);
  int64_t step = 0;
  auto train = [&](int steps) {
    for (int i = 0; i < steps; ++i, ++step) {
      run.losses.push_back(
          runner.Step(model.TrainShards(runner.num_ranks(), rng, step)));
    }
  };
  train(30);
  EXPECT_TRUE(runner.Rescale(ResourceSpec::Homogeneous(2, 1)).ok());
  EXPECT_TRUE(runner.Rescale(ResourceSpec::Homogeneous(4, 1)).ok());
  train(6);
  run.simulated_seconds = runner.simulated_seconds();
  if (const SparsityMonitor* monitor = runner.sparsity_monitor()) {
    run.verdicts = monitor->trail();
  }
  run.rescales = runner.rescale_trail();
  return run;
}

TEST(PlannerServiceRunnerTest, PlannerRoutedAdaptAndRescaleMatchPrivateRunner) {
  // With exact-alpha keys (alpha_quantum 0) the service searches at the runner's own
  // alphas, so every planner-routed search — startup, MaybeAdapt and both Rescales —
  // must leave the same trail as the private runner, double for double.
  for (ElasticSearch search : {ElasticSearch::kUniform, ElasticSearch::kPerVariable,
                               ElasticSearch::kPlacedOnTwoRacks}) {
    SCOPED_TRACE(static_cast<int>(search));
    auto service = std::make_shared<PlannerService>(
        PlannerServiceOptions{.alpha_quantum = 0.0, .max_workers = 1});
    const ElasticRun routed = TrainElasticDriftingLm(search, service);
    const ElasticRun own = TrainElasticDriftingLm(search, nullptr);
    EXPECT_EQ(routed.losses, own.losses);
    EXPECT_EQ(routed.simulated_seconds, own.simulated_seconds);
    ASSERT_EQ(routed.verdicts.size(), own.verdicts.size());
    ASSERT_FALSE(own.verdicts.empty());
    int adoptions = 0;
    for (size_t i = 0; i < own.verdicts.size(); ++i) {
      EXPECT_TRUE(routed.verdicts[i].best_plan == own.verdicts[i].best_plan) << i;
      EXPECT_EQ(routed.verdicts[i].best_seconds, own.verdicts[i].best_seconds) << i;
      EXPECT_EQ(routed.verdicts[i].current_seconds, own.verdicts[i].current_seconds) << i;
      EXPECT_EQ(routed.verdicts[i].adopted, own.verdicts[i].adopted) << i;
      adoptions += own.verdicts[i].adopted ? 1 : 0;
    }
    EXPECT_GE(adoptions, 1);
    ASSERT_EQ(routed.rescales.size(), 2u);
    ASSERT_EQ(own.rescales.size(), 2u);
    for (size_t i = 0; i < own.rescales.size(); ++i) {
      EXPECT_TRUE(routed.rescales[i].to_plan == own.rescales[i].to_plan) << i;
      EXPECT_EQ(routed.rescales[i].incumbent_seconds, own.rescales[i].incumbent_seconds)
          << i;
      EXPECT_EQ(routed.rescales[i].adopted_seconds, own.rescales[i].adopted_seconds) << i;
    }
    EXPECT_GE(service->stats().searches, 3u);
  }
}

}  // namespace
}  // namespace parallax
