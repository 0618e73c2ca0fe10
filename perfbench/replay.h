// The stack-replay arm: one workload's op stream, single-threaded and
// chunk-interleaved through plain PhTree, PhTree + EnableMvcc and
// PhTreeSharded(dim) (plus plain PhTree with SIMD kernels forced scalar for
// reads, and the shards' own CountWindow called serially for windows), so
// each layer's added cost per op is a difference of two timed stacks.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <vector>

#include "live.h"
#include "perfbench.h"

namespace perfbench {

void RunReplay(uint32_t dim, const std::vector<phtree::PhEntry>& initial,
               const ReplayInput& in, SpanLog& spans, uint64_t parent,
               Report* report, OpLog* check);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
