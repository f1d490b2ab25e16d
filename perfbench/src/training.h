// Pieces shared by the training workloads (training.cc, elastic.cc).
#ifndef PERFBENCH_TRAINING_H_
#define PERFBENCH_TRAINING_H_

#include <functional>
#include <vector>

#include "common.h"
#include "src/base/rng.h"
#include "src/core/api.h"
#include "src/graph/executor.h"

namespace perfbench {

// A trainable model as the loop sees it.
struct Model {
  parallax::Graph* graph = nullptr;
  parallax::NodeId loss = parallax::kNoNode;
  std::function<std::vector<parallax::FeedMap>(int ranks, parallax::Rng& rng, int64_t step)>
      shards;
};

// One episode's observable outputs (what the bit-identity checks compare).
struct Trajectory {
  std::vector<float> losses;   // every Step, first included
  std::vector<double> clocks;  // simulated_seconds() after each Step
  double sim_iter_ms = 0.0;
  int first_repartition = -1;  // first Step whose MaybeAdapt repartitioned, if any
};

// Bit-for-bit equality of losses and simulated clocks (NaN never matches).
bool SameTrajectory(const Trajectory& a, const Trajectory& b);

// Wall-clock samples pooled over the episodes of one run.
struct LoopStats {
  std::vector<double> setup_ms;  // Build() + first Step
  std::vector<double> build_ms;
  std::vector<double> first_step_ms;
  std::vector<double> step_ms;   // every warm Step call
  std::vector<double> step_allocs;
  double loop_ms = 0.0;          // whole timed loops, feeds and explicit calls included
  int64_t samples = 0;           // samples trained in those loops
  int episodes = 0;
};

// Counts the sparse rows and rank contributions the PS path observes per step. It sits
// in front of the observer the engines already had (the sparsity monitor under
// adaptive partitioning) and forwards every call, so the runner sees what it saw.
class RowCounter : public parallax::SparseAccessObserver {
 public:
  // Installs the counter on every engine of `runner`; Uninstall puts the engines'
  // observer back. Engines survive Rescale and Repartition, so one Install lasts.
  void Install(const parallax::GraphRunner& runner);
  void Uninstall(const parallax::GraphRunner& runner);

  void ObserveSparseStep(int variable, int64_t unique_rows, int contributions) override;
  void ObserveRankAccess(int variable, int64_t unique_rows) override;

  int64_t unique_rows() const { return unique_rows_; }
  int64_t contributions() const { return contributions_; }

 private:
  parallax::SparseAccessObserver* next_ = nullptr;
  int64_t unique_rows_ = 0;
  int64_t contributions_ = 0;
};

// Warm steps `first`..`last` of `runner`, each taken through the public calls
// GraphRunner::Step makes on the synchronous path, in spans tagged with the step:
// "data" (the feeds), then inside "step.decomposed" a "view" (View() per engine), an
// "executor.rank" per rank (Executor::RunStepInto), a "sync.<engine>" per engine in
// plan order (ApplyStep) and "sim" (SimulateIteration on a benchmark-owned simulator
// built from assignment()). The runner's adaptive loop does not run. Must start right
// after the first Step; appends each step's loss and simulated clock to `traced`.
void DecomposedSteps(parallax::GraphRunner& runner, const Model& model,
                     const parallax::ParallaxConfig& config, parallax::Rng& rng, int first,
                     int last, Tracer& tracer, Trajectory& traced, Result& result);

// The per-layer metrics of the decomposed steps in `tracer`: data, executor, view,
// sync.ps / sync.ar timings and allocations, sim.host_us_per_iteration and
// step.unattributed_ms.
void ReportDecomposedLayers(const Tracer& tracer, Result& result);
void ReportRows(const RowCounter& rows, double steps, Result& result);

// The end-to-end metrics of an untraced training run. The median step time and the
// throughput go to the record only: on a shared host they move with other tenants'
// load by more than a regression bound could absorb (README.md, Steadiness).
void ReportEndToEnd(const LoopStats& stats, Result& result);
// Checks that the loss falls from the first window at or after Step `from` (where the
// data distribution last changed) to the final window, and records final_loss and
// sim_iter_ms.
void RecordTrajectory(const Trajectory& trajectory, size_t from, Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_TRAINING_H_
