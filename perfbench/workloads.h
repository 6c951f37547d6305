// The benchmark's four workloads and the runner that measures them.
//
// A run repeats ROUNDS until at least kMinRounds have finished and their
// timed phases add up to --seconds. One round is a fixed amount of work:
// generate the trace, open a fresh store (or server), replay the whole trace
// (timed), check the store against the MemStore oracle, close it and measure
// what it left on disk. Because a round's work never depends on how fast it
// ran, a faster build does more rounds, not more work per round, so per-round
// figures (disk, write amplification, engine counters) stay comparable.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/common/config.h"
#include "src/common/status.h"
#include "src/gadget/evaluator.h"
#include "src/stores/kvstore.h"
#include "src/streams/state_access.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  std::string source;  // borg | synthetic
  std::string op;      // Gadget operator logic
  uint64_t events = 0;
  uint64_t keys = 0;   // synthetic key space (uniform)
  int threads = 1;     // in-process replay threads; 0 = served over the wire
  // 0 keeps the engine default; agg_cold shrinks both so one round spans
  // several flush/compaction cycles with a cold pool.
  uint64_t write_buffer_bytes = 0;
  uint64_t pool_bytes = 0;
};

const std::vector<WorkloadSpec>& AllWorkloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// The BuildAccessTrace config of `spec` under `seed`.
gadget::Config TraceConfig(const WorkloadSpec& spec, uint64_t seed);

// Replays `trace` into `store`: ReplayTrace from one thread, or ReplaySharded
// over `threads` threads (per-instance results merged).
gadget::StatusOr<gadget::ReplayResult> Replay(const std::vector<gadget::StateAccess>& trace,
                                              gadget::KVStore* store, int threads);

// Opens the workload's LSM store rooted at `dir`.
gadget::StatusOr<std::unique_ptr<gadget::KVStore>> OpenWorkloadStore(const WorkloadSpec& spec,
                                                                      const std::string& dir);

struct RunOptions {
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // scratch stores and the span file go here
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  // filled by traced runs only
  std::vector<std::string> notes;  // extra human-readable lines
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
};

// Runs `spec` as described above. Oracle mismatches are printed to `err` and
// clear report->correct; a store or network error is returned.
gadget::Status RunWorkload(const WorkloadSpec& spec, const RunOptions& opts, Report* report,
                           std::ostream& err);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
