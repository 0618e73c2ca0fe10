// The three workloads and the phase runner that drives their clients.
#ifndef PERFBENCH_LIVE_H_
#define PERFBENCH_LIVE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "perfbench.h"
#include "phtree/sharded.h"

namespace perfbench {

/// Op streams for the stack-replay arm. Every stream is valid against the
/// workload's initial content when the segments run in this order:
/// reads, inserts, erases, updates.
struct ReplayInput {
  std::vector<phtree::PhKey> finds;
  std::vector<std::pair<phtree::PhKey, phtree::PhKey>> windows;
  std::vector<phtree::PhKey> knn;
  std::vector<phtree::PhKey> inserts;  ///< keys absent from the content
  std::vector<phtree::PhKey> erases;   ///< keys present after the inserts
  std::vector<std::pair<phtree::PhKey, phtree::PhKey>> updates;
};

/// One benchmark thread's state during a phase.
struct alignas(64) ClientCtx {
  ClientCtx(uint32_t thread, bool traced) : spans(thread, traced) {}

  const std::atomic<bool>* stop = nullptr;
  OpLog log;
  SpanLog spans;
  uint64_t parent = 0;  ///< span id of the phase
  bool record = false;  ///< keep the op stream for the replay arm
  std::atomic<uint64_t> done{0};  ///< completed ops, sampled by the runner
};

/// Runs `fn` and logs its wall time as one `kind` sample and one span.
template <typename Fn>
auto Timed(ClientCtx& ctx, uint32_t kind, uint32_t span, Fn&& fn) {
  const uint64_t t0 = NowNs();
  auto result = fn();
  const uint64_t t1 = NowNs();
  ctx.log.lat[kind].Add(t1 - t0);
  ctx.spans.Add(span, ctx.parent, t0, t1);
  ctx.done.store(ctx.done.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  return result;
}

/// What a phase measured.
struct PhaseResult {
  OpLog clients;  ///< merged over the closed-loop clients
  OpLog writer;   ///< the open-loop writer, if the workload has one
  LatencyHist writer_late;  ///< start minus due time per op
  uint64_t writer_due = 0;   ///< ops the writer's schedule called for
  double ops_s = 0;          ///< median closed-loop ops/s over intervals
  double seconds = 0;
  uint64_t max_retired_bytes = 0;  ///< highest sampled retired backlog
  std::vector<std::unique_ptr<ClientCtx>> threads;  ///< keeps the spans
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual uint32_t dim() const = 0;
  /// True if an open-loop writer runs beside the closed-loop clients.
  virtual bool paced_writer() const { return false; }

  /// Generates data, query pools and oracle answers (untimed).
  virtual void Prepare(SpanLog& spans, uint64_t parent) = 0;
  /// Builds the index from the prepared data: the timed set-up step.
  virtual std::unique_ptr<phtree::PhTreeSharded> Build(SpanLog& spans,
                                                       uint64_t parent) = 0;
  /// Called before each phase; `phase` seeds the clients' streams.
  virtual void BeginPhase(uint32_t phase, uint32_t clients) = 0;
  /// One closed-loop client; returns when *ctx.stop is set.
  virtual void RunClient(phtree::PhTreeSharded& tree, uint32_t idx,
                         ClientCtx& ctx) = 0;
  /// The open-loop writer (paced_writer() only).
  virtual void RunWriter(phtree::PhTreeSharded&, ClientCtx&, PhaseResult*) {}
  /// Compares the quiesced content with the workload's model.
  virtual void CheckContent(const phtree::PhTreeSharded& tree,
                            OpLog* log) = 0;
  /// The recorded (and, for kinds the workload does not issue,
  /// synthesized) op streams for the replay arm.
  virtual ReplayInput MakeReplayInput() = 0;
  /// The entries the index starts from.
  virtual const std::vector<phtree::PhEntry>& initial() const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const Options& opt);

/// Update executions by strategy, summed over the shards. Call only while
/// no thread mutates the tree.
phtree::PhUpdateStats SumUpdateStats(const phtree::PhTreeSharded& tree);

/// Fast-path share of the updates between two SumUpdateStats readings.
double FastPathShare(const phtree::PhUpdateStats& before,
                     const phtree::PhUpdateStats& after);

/// Benchmark threads available: min(4, CPUs this process may run on).
uint32_t MaxThreads();

/// Every run drives the clients this long, unmeasured, right after set-up,
/// so first-touch page faults and cold caches stay out of the phases.
constexpr double kWarmUpSeconds = 1.0;

struct PhaseSpec {
  uint32_t phase = 0;
  uint32_t clients = 1;
  double seconds = 1;
  bool traced = false;
  bool record = false;
  /// Sample ComputeStats once a second for the retired backlog.
  bool sample_backlog = false;
  uint64_t parent = 0;
};

PhaseResult RunPhase(Workload& w, phtree::PhTreeSharded& tree,
                     const PhaseSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_LIVE_H_
