// Standalone EpochManager timings: Enter/Exit at 1 and 4 threads, and
// TryAdvance with 0 and 3 announced readers. They isolate the two costs
// every wrapper call and every MVCC mutation pay: the thread-id hash and
// slot claim in Enter, and the seq_cst scan of all slots in TryAdvance.
#ifndef PERFBENCH_EPOCH_ARM_H_
#define PERFBENCH_EPOCH_ARM_H_

#include "perfbench.h"

namespace perfbench {

void RunEpochArm(double scale, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_EPOCH_ARM_H_
