// plan_service: one PlannerService at its defaults answering a seeded stream of
// planning queries from two client threads.
//
// The traffic follows the tenant mixture of bench/bench_multitenant.cc (TenantMix),
// the repository's model of the service's regime, "many tenants, few distinct
// planning problems": 120 tenants, each asking for the plan of one of 4 model shapes
// at one of 4 alpha operating points, with a per-tenant measurement jitter that the
// service's alpha quantization folds away. That makes 16 distinct problems, each
// asked by 7 or 8 tenants. One thing is added as an assumption, since TenantMix runs
// only per-variable searches on a flat cluster: each problem is assigned a search
// kind (uniform, per-variable or placement) and a cluster (flat or 2-rack), so that
// every kind runs on both clusters. The record reports each query kind's share.
//
// An episode is a fresh service, a warm-up query (set-up) and the 120 tenants in a
// seeded order, asked in lockstep rounds: in each round both clients issue one query
// and wait for each other. Which queries miss (a problem's first asker), coalesce
// (both clients ask a new problem in one round) or hit the cache is then fixed by the
// seed and the episode number, not by timing; each episode draws a new order, so a
// run averages over many pairings of misses.
#include <algorithm>
#include <barrier>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "search_replay.h"
#include "src/base/rng.h"
#include "src/service/planner_service.h"

namespace perfbench {

using namespace parallax;

namespace {

enum class SearchKind { kUniform, kPerVariable, kPlacement };
constexpr SearchKind kKinds[] = {SearchKind::kUniform, SearchKind::kPerVariable,
                                 SearchKind::kPlacement};
constexpr int kShapes = 4;
constexpr double kAlphaPoints[] = {0.01, 0.02, 0.05, 0.13};  // TenantMix's operating points
constexpr int kProblems = kShapes * 4;
constexpr int kTenants = 120;
constexpr double kJitter = 0.004;  // +/- per tenant; stays inside one alpha bucket
constexpr int kMachines = 4;
constexpr int kGpusPerMachine = 2;

struct Problem {
  int shape = 0;  // model scale 1 + shape
  double alpha = 0.0;
  SearchKind kind = SearchKind::kUniform;
  bool racked = false;
};

// Problem p: TenantMix's shape p % 4 at operating point p / 4, as tenant p asks it.
// The kind cycles with p and the cluster alternates every three problems, so each of
// the six (kind, cluster) pairs gets two or three problems at mixed shapes and alphas.
Problem MakeProblem(int p) {
  return Problem{p % kShapes, kAlphaPoints[p / kShapes], kKinds[p % 3], (p / 3) % 2 == 1};
}

// The planning query of `problem` at measured alpha `alpha`: TenantMix's model (two
// partitioned sparse embeddings and a dense block, 4 machines x 2 GPUs) and search
// options, with the problem's search kind and cluster.
PlannerQuery MakeQuery(const Problem& problem, double alpha) {
  const int64_t scale = 1 + problem.shape;
  PlannerQuery query;
  auto add = [&](const char* name, int64_t rows, int64_t width, bool sparse,
                 double variable_alpha, SyncMethod method) {
    VariableSync variable;
    variable.spec = {name, rows * width, width, sparse, variable_alpha};
    variable.method = method;
    query.variables.push_back({variable, sparse, sparse ? rows : 1});
  };
  add("embedding", 6'250 * scale, 64, true, alpha, SyncMethod::kPs);
  add("softmax", 3'125 * scale, 64, true, alpha * 2.5, SyncMethod::kPs);
  add("dense", 600'000, 1, false, 1.0, SyncMethod::kArAllReduce);

  query.cluster.num_machines = kMachines;
  query.cluster.gpus_per_machine = kGpusPerMachine;
  query.cluster.topology.num_racks = problem.racked ? 2 : 1;
  query.sim_config.ps_local_aggregation = true;
  query.sim_config.ps_machine_level_pulls = true;
  query.gpu_compute_seconds = 4e-3;
  query.compute_chunks = 4;
  query.options.initial_partitions = kMachines;
  query.options.warmup_iterations = 3;
  query.options.measured_iterations = 3;
  if (problem.kind == SearchKind::kUniform) {
    return query;
  }
  for (const PlannerVariable& v : query.variables) {
    if (v.partitioned) {
      query.targets.push_back(
          {v.sync.spec.name, v.sync.spec.alpha, v.sync.spec.num_elements, v.rows});
    }
  }
  if (problem.kind == SearchKind::kPlacement) {
    query.options.placement.enabled = true;
    query.options.placement.num_machines = kMachines;
    query.options.placement.num_racks = query.cluster.topology.num_racks;
    query.options.placement.nic_bandwidth = query.cluster.nic_bandwidth;
    query.options.placement.spine_bandwidth = query.cluster.topology.spine_bandwidth;
  }
  return query;
}

// The seeded inputs of a run: the problems, each tenant's query, and the warm-up.
struct Stream {
  uint64_t seed = 0;
  std::vector<Problem> problems;
  std::vector<int> problem_of;         // per tenant, TenantMix's tenant -> problem map
  std::vector<PlannerQuery> tenants;   // per tenant, at its jittered alpha
  PlannerQuery warmup;
};

Stream MakeStream(uint64_t seed) {
  Rng rng(seed * 104729 + 3);
  Stream stream;
  stream.seed = seed;
  for (int p = 0; p < kProblems; ++p) {
    stream.problems.push_back(MakeProblem(p));
  }
  for (int t = 0; t < kTenants; ++t) {
    const Problem& problem = stream.problems[static_cast<size_t>(t % kProblems)];
    const double jitter = 1.0 + kJitter * (2.0 * rng.NextDouble() - 1.0);
    stream.problem_of.push_back(t % kProblems);
    stream.tenants.push_back(MakeQuery(problem, problem.alpha * jitter));
  }
  // Set-up answers one query outside the stream (a cheap uniform search at an alpha no
  // tenant has), so the service's lazy state — pool lanes, the first arena — is built.
  stream.warmup = MakeQuery(Problem{0, 0.3, SearchKind::kUniform, false}, 0.3);
  return stream;
}

// The order in which the tenants of episode `episode` arrive: a seeded shuffle.
std::vector<int> ArrivalOrder(const Stream& stream, int episode) {
  std::vector<int> order(kTenants);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(stream.seed * 6364136223846793005ULL + static_cast<uint64_t>(episode) + 1);
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(i + 1)]);
  }
  return order;
}

struct Answer {
  int problem = 0;
  PlannerResult result;
  double ms = 0.0;
};

struct Episode {
  double construct_ms = 0.0;
  double warmup_ms = 0.0;
  double stream_ms = 0.0;
  std::vector<Answer> answers;
  PlannerServiceStats stats;
};

Episode RunEpisode(const Stream& stream, int index) {
  const std::vector<int> order = ArrivalOrder(stream, index);
  Episode episode;
  Clock::time_point start = Clock::now();
  PlannerService service;
  episode.construct_ms = MsSince(start);
  start = Clock::now();
  service.Plan(stream.warmup);
  episode.warmup_ms = MsSince(start);

  std::vector<Answer> answers(order.size());
  std::barrier round_barrier(2);
  auto client = [&](size_t c) {
    for (size_t i = c; i < order.size(); i += 2) {
      round_barrier.arrive_and_wait();
      const size_t tenant = static_cast<size_t>(order[i]);
      Answer& answer = answers[i];
      const Clock::time_point call = Clock::now();
      answer.result = service.Plan(stream.tenants[tenant]);
      answer.ms = MsSince(call);
      answer.problem = stream.problem_of[tenant];
    }
  };
  start = Clock::now();
  {
    std::jthread other(client, 1);
    client(0);
  }
  episode.stream_ms = MsSince(start);
  episode.answers = std::move(answers);
  episode.stats = service.stats();
  return episode;
}

bool SameAnswer(const PlannerResult& a, const PlannerResult& b) {
  return a.plan == b.plan && a.seconds == b.seconds;
}

// How the service answered the queries of a run, counted as they come.
struct AnswerKinds {
  double hits = 0.0;
  double coalesced = 0.0;
  double total = 0.0;

  void Add(const PlannerResult& answer) {
    hits += answer.cache_hit ? 1.0 : 0.0;
    coalesced += answer.coalesced ? 1.0 : 0.0;
    total += 1.0;
  }
};

// Shares of the queries a run answered, by how the service answered them and by the
// search they asked for; they go to the record.
void RecordShares(const Stream& stream, const AnswerKinds& answers, Result& result) {
  const double hits = answers.hits;
  const double coalesced = answers.coalesced;
  const double total = answers.total;
  result.info["share.hit"] = hits / total;
  result.info["share.coalesced"] = coalesced / total;
  result.info["share.miss"] = (total - hits - coalesced) / total;
  double kinds[3] = {0.0, 0.0, 0.0};
  double racked = 0.0;
  for (int problem : stream.problem_of) {
    const Problem& p = stream.problems[static_cast<size_t>(problem)];
    kinds[static_cast<int>(p.kind)] += 1.0 / kTenants;
    racked += p.racked ? 1.0 / kTenants : 0.0;
  }
  result.info["share.uniform"] = kinds[0];
  result.info["share.per_variable"] = kinds[1];
  result.info["share.placement"] = kinds[2];
  result.info["share.racked"] = racked;
}

}  // namespace

Result RunPlanService(const Args& args) {
  Result result;
  const Stream stream = MakeStream(args.seed);
  // The oracle: every problem's canonicalized query searched privately and serially.
  // Canonicalization folds each tenant's jitter, so any tenant's query stands for it.
  PlannerService canonicalizer;
  std::vector<PlannerQuery> canonical(kProblems);
  for (int p = 0; p < kProblems; ++p) {
    canonical[static_cast<size_t>(p)] = stream.tenants[static_cast<size_t>(p)];
    canonicalizer.Canonicalize(&canonical[static_cast<size_t>(p)]);
  }

  std::vector<double> setup_ms;
  std::vector<double> latency_ms;
  double stream_ms = 0.0;
  int64_t queries = 0;
  AnswerKinds kinds;
  // Only the first episode is kept (the traced run reads it): a run holds no more
  // memory at its end than after its first episode.
  Episode first;
  int episodes = 0;
  std::vector<std::optional<PlannerResult>> first_answer(kProblems);
  const Clock::time_point start = Clock::now();
  while (episodes < kMinEpisodes || MsSince(start) < args.seconds * 1e3) {
    Episode episode = RunEpisode(stream, episodes);
    setup_ms.push_back(episode.construct_ms + episode.warmup_ms);
    stream_ms += episode.stream_ms;
    for (const Answer& answer : episode.answers) {
      latency_ms.push_back(answer.ms);
      kinds.Add(answer.result);
      ++queries;
      const size_t problem = static_cast<size_t>(answer.problem);
      const bool finite = std::isfinite(answer.result.seconds) && answer.result.seconds > 0;
      if (!first_answer[problem].has_value()) {
        first_answer[problem] = answer.result;
      }
      result.Check(finite && SameAnswer(answer.result, *first_answer[problem]),
                   "plan for problem " + std::to_string(problem) + " is finite and stable");
    }
    result.Check(episode.stats.searches == kProblems + 1,
                 "the service searches each problem (and the warm-up) once");
    if (episodes++ == 0) {
      first = std::move(episode);
    }
    if (args.trace) {
      break;
    }
  }

  // Every answer equals the oracle's search of its canonicalized query.
  SearchTally untimed;
  std::vector<PartitionPlan> oracle_plans(canonical.size());
  double adopted_seconds = 0.0;
  for (size_t p = 0; p < canonical.size(); ++p) {
    const ReplayOutcome oracle = ReplaySearch(canonical[p], nullptr, 0);
    untimed.Add(oracle);
    oracle_plans[p] = oracle.plan;
    adopted_seconds += oracle.seconds;
    result.Check(first_answer[p].has_value() && first_answer[p]->plan == oracle.plan &&
                     first_answer[p]->seconds == oracle.seconds,
                 "service answer for problem " + std::to_string(p) +
                     " equals the private search of its canonicalized query");
  }
  const double sim_iter_ms = adopted_seconds / static_cast<double>(canonical.size()) * 1e3;
  result.info["sim_iter_ms"] = sim_iter_ms;
  result.info["episodes"] = episodes;
  result.info["queries"] = static_cast<double>(queries);
  result.info["service_pool_threads"] = DefaultWorkerCount(std::numeric_limits<int>::max());
  result.info["serial_search_ms"] = untimed.ms / static_cast<double>(untimed.searches);
  RecordShares(stream, kinds, result);

  if (!args.trace) {
    result.Set("setup_s", Median(setup_ms) / 1e3, "s");
    // Windows of two episodes (240 queries), so that 12 queries lie beyond each p95.
    const size_t window = static_cast<size_t>(2 * kTenants);
    result.Set("latency_ms_p95", MedianWindowP95(latency_ms, window), "ms");
    result.info["latency_ms_p50"] = Percentile(latency_ms, 0.50);
    result.info["throughput_per_s"] = static_cast<double>(queries) / (stream_ms / 1e3);
    result.Set("peak_rss_mb", PeakRssMb(), "MiB");
    return result;
  }

  // Traced: replay every problem's search with a timed measure callback, each right
  // after an untimed replay of the same problem (the overhead baseline), for as long
  // as the run lasts.
  Tracer tracer;
  SearchTally timed;
  std::vector<double> overhead;
  const Clock::time_point traced_start = Clock::now();
  int passes = 0;
  while (passes < 1 || MsSince(traced_start) < args.seconds * 1e3) {
    for (size_t p = 0; p < canonical.size(); ++p) {
      const double untimed_ms = ReplaySearch(canonical[p], nullptr, 0).ms;
      const ReplayOutcome replay =
          ReplaySearch(canonical[p], &tracer, static_cast<int64_t>(p));
      timed.Add(replay);
      overhead.push_back(replay.ms / untimed_ms);
      result.Check(replay.plan == oracle_plans[p],
                   "timed replay of problem " + std::to_string(p) + " adopts the same plan");
    }
    ++passes;
  }
  const Episode& episode = first;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  for (const Answer& answer : episode.answers) {
    if (answer.result.cache_hit) {
      hit_ms.push_back(answer.ms);
    } else if (!answer.result.coalesced) {
      miss_ms.push_back(answer.ms);
    }
  }
  const PlannerServiceStats& stats = episode.stats;
  timed.batched = static_cast<int64_t>(stats.batched_evaluations);
  timed.waste = static_cast<int64_t>(stats.speculative_waste);
  result.Set("sim.host_us_per_iteration",
             timed.measure_ms * 1e3 / static_cast<double>(timed.sim_iterations), "us");
  result.Set("sim.iter_ms", sim_iter_ms, "ms");
  ReportSearch(timed, result);
  result.Set("service.hit_ratio",
             static_cast<double>(hit_ms.size()) / static_cast<double>(episode.answers.size()),
             "ratio");
  result.Set("service.hit_ms_p50", Median(hit_ms), "ms");
  result.Set("service.miss_ms_p50", Median(miss_ms), "ms");
  result.Set("service.searches", static_cast<double>(stats.searches), "count");
  result.Set("service.arenas", static_cast<double>(stats.total_arenas), "count");
  result.Set("setup.build_ms", episode.construct_ms, "ms");
  result.Set("setup.first_step_ms", episode.warmup_ms, "ms");
  result.Set("trace.overhead_ratio", Median(overhead), "ratio");
  // No training runs here: no feeds, executor, view, sync engines, Steps, adaptive
  // loop, checkpoints or rescales.
  for (const char* name :
       {"data.ms_per_step", "executor.ms_per_step", "executor.ms_per_rank_p50",
        "view.ms_per_step", "sync.ps.ms_per_step", "sync.ar.ms_per_step",
        "step.unattributed_ms", "adapt.step_ms", "checkpoint.write_ms", "checkpoint.read_ms",
        "rescale.ms", "rescale.migration_sim_ms"}) {
    result.SetUnreached(name, "ms");
  }
  for (const char* name :
       {"executor.allocs_per_step", "view.allocs_per_step", "sync.ps.unique_rows_per_step",
        "sync.ps.contributions_per_step", "sync.ps.allocs_per_step", "sync.ar.allocs_per_step",
        "step.allocs", "adapt.verdicts", "adapt.repartitions"}) {
    result.SetUnreached(name, "count");
  }
  result.SetUnreached("checkpoint.bytes", "bytes");
  result.info["traced_passes"] = passes;
  tracer.WriteChromeTrace(args.out_dir + "/trace-" + args.workload + ".json");
  return result;
}

}  // namespace perfbench
