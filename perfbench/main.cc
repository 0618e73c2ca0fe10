// The end-to-end benchmark program.
//
//   perfbench --workload <tiger2d_read|move3d_update|cube6d_mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>] [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the traced phase, the stack replay and the epoch arm and reports
// the per-layer metrics. Every metric is printed as a tab-separated
// "metric" line with its unit and sample count, followed by a "checks"
// line with the number of checked answers and of wrong ones.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/fault.h"
#include "epoch_arm.h"
#include "live.h"
#include "replay.h"

namespace perfbench {
namespace {

// Builds of the index per run; setup_s is their median. Builds within one
// run differ by up to +-20%, so one build gives no steady figure; more than
// three would not leave time for 25 s runs of every workload.
constexpr int kSetups = 3;

// Longest traced phase. Per-layer numbers carry no bound, so the traced run
// stays short even when --seconds is long.
constexpr double kMaxTracedSeconds = 10;

bool ParseArgs(int argc, char** argv, Options* opt) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      opt->trace = value == "1";
    } else if (flag == "--scale") {
      opt->scale = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt->scale > 0)) return false;
    } else if (flag == "--out-dir") {
      opt->out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && argc % 2 == 1;
}

void AddPercentiles(Report* rep, const std::string& name,
                    const LatencyHist& ns) {
  if (ns.empty()) {
    return;
  }
  rep->Add(name + "_p50_us", ns.Percentile(0.50) * 1e-3, "us", ns.count());
  rep->Add(name + "_p99_us", ns.Percentile(0.99) * 1e-3, "us", ns.count());
}

/// Latencies of every call the closed-loop clients made.
LatencyHist ClosedLoopLatencies(const PhaseResult& ph) {
  LatencyHist all;
  for (const auto& h : ph.clients.lat) {
    all.Merge(h);
  }
  return all;
}

/// The end-to-end numbers of one phase, by op kind where it applies.
void AddPhaseMetrics(const PhaseResult& ph, Report* rep) {
  OpLog all = ph.clients;
  all.Merge(ph.writer);
  const auto& lat = all.lat;
  const double reads = static_cast<double>(
      lat[kFind].count() + lat[kWindow].count() + lat[kKnn].count());
  const double writes = static_cast<double>(
      lat[kInsert].count() + lat[kErase].count() + lat[kUpdate].count());
  rep->Add("ops_s", ph.ops_s, "1/s");
  AddPercentiles(rep, "op", ClosedLoopLatencies(ph));
  if (reads > 0) rep->Add("read_ops_s", reads / ph.seconds, "1/s");
  if (writes > 0) rep->Add("write_ops_s", writes / ph.seconds, "1/s");
  AddPercentiles(rep, "find", lat[kFind]);
  AddPercentiles(rep, "window", lat[kWindow]);
  AddPercentiles(rep, "knn", lat[kKnn]);
  LatencyHist w = lat[kUpdate];
  w.Merge(lat[kInsert]);
  w.Merge(lat[kErase]);
  AddPercentiles(rep, "write", w);
  if (!ph.writer_late.empty()) {
    rep->Add("gen.writer_late_p99_ms", ph.writer_late.Percentile(0.99) * 1e-6,
             "ms", ph.writer_late.count());
    rep->Add("gen.writer_done_share",
             static_cast<double>(ph.writer_late.count()) /
                 static_cast<double>(std::max<uint64_t>(ph.writer_due, 1)),
             "share");
  }
}

/// Structure of the quiesced tree: shard balance, node representations,
/// space.
void AddStructureMetrics(const phtree::PhTreeSharded& tree,
                         const phtree::PhTreeStats& st, Report* rep) {
  size_t largest = 0;
  for (uint32_t s = 0; s < tree.num_shards(); ++s) {
    const size_t size = tree.UnsafeShard(s).size();
    largest = std::max(largest, size);
    rep->Add("sharded.shard_size." + std::to_string(s),
             static_cast<double>(size), "count");
  }
  const double n = static_cast<double>(std::max<size_t>(st.n_entries, 1));
  const double nodes = static_cast<double>(std::max<size_t>(st.n_nodes, 1));
  rep->Add("sharded.max_shard_share", static_cast<double>(largest) / n,
           "share");
  rep->Add("node.hc_share", static_cast<double>(st.n_hc_nodes) / nodes,
           "share");
  rep->Add("node.lhc_share", static_cast<double>(st.n_lhc_nodes) / nodes,
           "share");
  rep->Add("node.bhc_share", static_cast<double>(st.n_bhc_nodes) / nodes,
           "share");
  rep->Add("node.entries_per_node", n / nodes, "count");
  rep->Add("phtree.avg_node_depth",
           static_cast<double>(st.sum_node_depth) / nodes, "count");
  rep->Add("arena.slab_bytes_per_entry",
           static_cast<double>(st.arena_slab_bytes) / n, "B");
}

/// Saves the tree and loads it back into a fresh PhTreeSharded.
void AddSerializeMetrics(const phtree::PhTreeSharded& tree,
                         const Options& opt, SpanLog& spans, uint64_t parent,
                         Report* rep, OpLog* checks) {
  const std::string path = opt.out_dir + "/" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".trace.snapshot";
  uint64_t t0 = NowNs();
  const phtree::Status saved = tree.Save(path);
  const uint64_t t1 = NowNs();
  spans.Add(kSpanShardedSave, parent, t0, t1);
  phtree::PhTreeSharded copy(tree.dim());
  const phtree::Status loaded = copy.Load(path);
  const uint64_t t2 = NowNs();
  spans.Add(kSpanShardedLoad, parent, t1, t2);
  ++checks->attempted;
  if (!saved.ok() || !loaded.ok() || copy.size() != tree.size()) {
    checks->Fail("snapshot round trip failed");
  }
  std::error_code ec;
  const double bytes =
      static_cast<double>(std::filesystem::file_size(path, ec));
  std::filesystem::remove(path, ec);
  rep->Add("serialize.save_s", static_cast<double>(t1 - t0) * 1e-9, "s");
  rep->Add("serialize.load_s", static_cast<double>(t2 - t1) * 1e-9, "s");
  rep->Add("serialize.snapshot_bytes_per_entry",
           bytes / static_cast<double>(std::max<size_t>(tree.size(), 1)),
           "B");
}

/// Prints every metric as a tab-separated line, then the check tally.
/// run.py turns these lines into the final JSON object.
void PrintResult(const Report& rep, const OpLog& checks) {
  for (const Metric& m : rep.metrics()) {
    std::printf("metric\t%s\t%.17g\t%s\t%llu\n", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  std::printf("metric\tfail_share\t%.17g\tshare\t%llu\n",
              checks.attempted == 0
                  ? 0.0
                  : static_cast<double>(checks.failed) /
                        static_cast<double>(checks.attempted),
              static_cast<unsigned long long>(checks.attempted));
  if (!checks.first_failure.empty()) {
    std::fprintf(stderr, "first failure: %s\n", checks.first_failure.c_str());
  }
  std::printf("checks\t%llu\t%llu\n",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));
}

int Run(const Options& opt) {
  auto workload = MakeWorkload(opt);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  Workload& w = *workload;
  SpanLog spans(0, opt.trace);
  Report rep;
  OpLog checks;

  // ---- Set-up: generate (untimed), then build the index kSetups times.
  const uint64_t setup_start = NowNs();
  const uint64_t setup_span = spans.Open();
  w.Prepare(spans, setup_span);
  std::vector<double> setup_times;
  std::unique_ptr<phtree::PhTreeSharded> tree;
  for (int r = 0; r < kSetups; ++r) {
    // A service builds its index once. Hand the previous build's freed
    // memory back to the system (glibc keeps it in whichever thread's arena
    // freed it), so every build starts from the same resident set, and let
    // peak_rss_mb cover only the last build and the phases after it.
    tree.reset();
    malloc_trim(0);
    if (r == kSetups - 1) {
      ResetPeakRss();
    }
    const uint64_t t0 = NowNs();
    tree = w.Build(spans, setup_span);
    setup_times.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    std::fprintf(stderr, "set-up %d: %.3f s\n", r + 1, setup_times.back());
  }
  spans.Close(setup_span, kSpanPhaseSetup, 0, setup_start);
  if (opt.trace) {
    const phtree::PhTreeStats st = tree->ComputeStats();
    rep.Add("arena.setup_retired_nodes",
            static_cast<double>(st.arena_retired_nodes +
                                st.arena_reclaimed_nodes),
            "count");
  }
  const uint32_t clients =
      w.paced_writer() ? std::max<uint32_t>(1, MaxThreads() - 1)
                       : MaxThreads();
  // The warm-up is the first phase after set-up, so it also records the
  // op stream the replay arm starts from the initial content with.
  const PhaseResult warm_up = RunPhase(w, *tree, {.phase = 9,
                                                  .clients = clients,
                                                  .seconds = kWarmUpSeconds,
                                                  .record = opt.trace});
  checks.Merge(warm_up.clients);
  checks.Merge(warm_up.writer);

  if (!opt.trace) {
    rep.Add("setup_s", Median(setup_times), "s", setup_times.size());
    PhaseResult ph = RunPhase(w, *tree, {.phase = 0,
                                         .clients = clients,
                                         .seconds = opt.seconds});
    checks.Merge(ph.clients);
    checks.Merge(ph.writer);
    w.CheckContent(*tree, &checks);
    AddPhaseMetrics(ph, &rep);
    const phtree::PhTreeStats st = tree->ComputeStats();
    rep.Add("bytes_per_entry",
            static_cast<double>(st.memory_bytes) /
                static_cast<double>(std::max<size_t>(tree->size(), 1)),
            "B");
    rep.Add("peak_rss_mb", PeakRssMb(), "MB");
    PrintResult(rep, checks);
    return 0;
  }

  // ---- Traced run: untraced reference phase, traced phase, one-client
  // phase.
  const double traced_s = std::min(opt.seconds, kMaxTracedSeconds);
  const PhaseResult ref = RunPhase(w, *tree, {.phase = 0,
                                              .clients = clients,
                                              .seconds = traced_s / 2});
  checks.Merge(ref.clients);
  checks.Merge(ref.writer);
  // The closed-loop p99 does not repeat within a tenth from run to run, so
  // it is a per-layer number, taken from the untraced reference phase.
  const LatencyHist ref_lat = ClosedLoopLatencies(ref);
  rep.Add("op_p99_us", ref_lat.Percentile(0.99) * 1e-3, "us", ref_lat.count());

  const phtree::PhTreeStats live_before = tree->ComputeStats();
  const phtree::PhUpdateStats updates_before = SumUpdateStats(*tree);
  phtree::FaultInjector injector;  // disarmed: it only counts
  phtree::FaultInjector* previous = phtree::SetFaultInjector(&injector);
  const uint64_t live_start = NowNs();
  const uint64_t live_span = spans.Open();
  const PhaseResult traced = RunPhase(w, *tree, {.phase = 1,
                                           .clients = clients,
                                           .seconds = traced_s,
                                           .traced = true,
                                           .sample_backlog = true,
                                           .parent = live_span});
  spans.Close(live_span, kSpanPhaseLive, 0, live_start);
  phtree::SetFaultInjector(previous);
  checks.Merge(traced.clients);
  checks.Merge(traced.writer);
  const phtree::PhTreeStats live_after = tree->ComputeStats();
  rep.Add("arena.retired_backlog_bytes",
          static_cast<double>(traced.max_retired_bytes), "B");
  rep.Add("trace.overhead_share", 1.0 - traced.ops_s / ref.ops_s, "share");
  {
    // Live-phase counters: table only, and only where the phase wrote.
    const auto& lat = traced.clients.lat;
    const auto& wlat = traced.writer.lat;
    const double writes = static_cast<double>(
        lat[kInsert].count() + lat[kErase].count() + lat[kUpdate].count() +
        wlat[kInsert].count() + wlat[kErase].count());
    if (writes > 0) {
      rep.Add("live.node_allocs_per_write",
              static_cast<double>(
                  injector.site_hits(phtree::FaultSite::kArenaNodeAlloc)) /
                  writes,
              "count");
      rep.Add("live.word_allocs_per_write",
              static_cast<double>(
                  injector.site_hits(phtree::FaultSite::kWordAlloc)) /
                  writes,
              "count");
      rep.Add("live.retired_per_write",
              static_cast<double>(live_after.arena_retired_nodes +
                                  live_after.arena_reclaimed_nodes -
                                  live_before.arena_retired_nodes -
                                  live_before.arena_reclaimed_nodes) /
                  writes,
              "count");
      rep.Add("live.epoch_advances_per_write",
              static_cast<double>(live_after.epoch - live_before.epoch) /
                  writes,
              "count");
    }
    if (!lat[kUpdate].empty()) {
      rep.Add("live.update_fast_path_share",
              FastPathShare(updates_before, SumUpdateStats(*tree)), "share");
    }
    Report live;
    AddPhaseMetrics(traced, &live);
    for (const Metric& m : live.metrics()) {
      rep.Add("live." + m.name, m.value, m.unit, m.samples);
    }
  }

  const PhaseResult one = RunPhase(w, *tree, {.phase = 2,
                                              .clients = 1,
                                              .seconds = traced_s / 2});
  checks.Merge(one.clients);
  checks.Merge(one.writer);
  rep.Add("sharded.client_scaling", ref.ops_s / one.ops_s, "x");
  // The same ratio under the name of the side its clients load.
  rep.Add(ref.clients.lat[kUpdate].empty() ? "sharded.read_scaling"
                                              : "sharded.write_scaling",
          ref.ops_s / one.ops_s, "x");
  w.CheckContent(*tree, &checks);
  AddStructureMetrics(*tree, tree->ComputeStats(), &rep);
  AddSerializeMetrics(*tree, opt, spans, 0, &rep, &checks);
  tree.reset();

  const uint64_t replay_start = NowNs();
  const uint64_t replay_span = spans.Open();
  RunReplay(w.dim(), w.initial(), w.MakeReplayInput(), spans, replay_span,
            &rep, &checks);
  spans.Close(replay_span, kSpanPhaseReplay, 0, replay_start);
  const uint64_t epoch_start = NowNs();
  RunEpochArm(opt.scale, &rep);
  spans.Add(kSpanPhaseEpochArm, 0, epoch_start, NowNs());

  std::vector<const SpanLog*> logs = {&spans};
  for (const auto* ph : {&ref, &traced, &one}) {
    for (const auto& t : ph->threads) {
      logs.push_back(&t->spans);
    }
  }
  const std::string span_path =
      opt.out_dir + "/spans-" + opt.workload + ".tsv";
  if (!WriteSpans(span_path, logs)) {
    std::fprintf(stderr, "could not write %s\n", span_path.c_str());
  }
  PrintResult(rep, checks);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--scale <f>] [--out-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  try {
    return perfbench::Run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
