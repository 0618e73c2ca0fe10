#include "epoch_arm.h"

#include <atomic>
#include <thread>
#include <vector>

#include "live.h"
#include "phtree/arena.h"

namespace perfbench {
namespace {

constexpr int kRepeats = 5;

/// Nanoseconds per Enter+Exit pair, median over `threads` threads each
/// running `iters` pairs at once.
double EnterExitNs(uint32_t threads, size_t iters) {
  phtree::EpochManager epochs;
  std::atomic<uint32_t> ready{0};
  std::vector<double> per_thread(threads);
  std::vector<std::thread> pool;
  for (uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < threads) {
        std::this_thread::yield();
      }
      const uint64_t t0 = NowNs();
      for (size_t i = 0; i < iters; ++i) {
        epochs.Exit(epochs.Enter());
      }
      per_thread[t] = static_cast<double>(NowNs() - t0) /
                      static_cast<double>(iters);
    });
  }
  for (auto& th : pool) {
    th.join();
  }
  return Median(per_thread);
}

/// Nanoseconds per TryAdvance while `readers` threads keep entering and
/// exiting, so their slots hold the current epoch most of the time.
double TryAdvanceNs(uint32_t readers, size_t iters) {
  phtree::EpochManager epochs;
  std::atomic<bool> stop{false};
  std::atomic<uint32_t> ready{0};
  std::vector<std::thread> pool;
  for (uint32_t r = 0; r < readers; ++r) {
    pool.emplace_back([&] {
      ready.fetch_add(1);
      while (!stop.load(std::memory_order_relaxed)) {
        epochs.Exit(epochs.Enter());
      }
    });
  }
  while (ready.load() < readers) {
    std::this_thread::yield();
  }
  const uint64_t t0 = NowNs();
  for (size_t i = 0; i < iters; ++i) {
    epochs.TryAdvance();
  }
  const double ns =
      static_cast<double>(NowNs() - t0) / static_cast<double>(iters);
  stop.store(true);
  for (auto& th : pool) {
    th.join();
  }
  return ns;
}

}  // namespace

void RunEpochArm(double scale, Report* report) {
  const size_t iters =
      std::max<size_t>(1000, static_cast<size_t>(1'000'000 * scale));
  const uint32_t wide = MaxThreads();
  const uint32_t readers = std::min<uint32_t>(3, wide - 1);
  std::vector<double> enter1, enter_wide, adv0, adv_readers;
  for (int r = 0; r < kRepeats; ++r) {
    enter1.push_back(EnterExitNs(1, iters));
    enter_wide.push_back(EnterExitNs(wide, iters));
    adv0.push_back(TryAdvanceNs(0, iters));
    adv_readers.push_back(TryAdvanceNs(readers, iters));
  }
  // Named for 4 threads and 3 readers; fewer run on a smaller machine.
  report->Add("epoch.enter_exit_ns.t1", Median(enter1), "ns");
  report->Add("epoch.enter_exit_ns.t4", Median(enter_wide), "ns");
  report->Add("epoch.try_advance_ns.r0", Median(adv0), "ns");
  report->Add("epoch.try_advance_ns.r3", Median(adv_readers), "ns");
}

}  // namespace perfbench
