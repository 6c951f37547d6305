// The benchmark's own load generator for the served workload. It is separate
// from the system under test (wire::RunLoadgen is deliberately not used, so
// rewriting that code never moves the yardstick) and talks to the server
// through the public wire codec only.
//
// The trace is hash-partitioned by key over the connections, so every key's
// operations travel in trace order on one connection. One thread drives all
// connections (poll), which keeps the generator to a single core beside the
// server's reactors and workers. Every frame carries one operation.
//   * Closed loop: each connection keeps `window` frames in flight and sends
//     the next one when a response arrives. Latency is send -> response.
//   * Open loop: operations are due at a fixed aggregate rate regardless of
//     how fast responses come back. Latency is timed from each operation's
//     SCHEDULED send, so a stall is charged to every request queued behind
//     it (no coordinated omission); how late the generator itself ran is
//     reported separately.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/oracle.h"
#include "perfbench/traced_store.h"
#include "src/common/histogram.h"
#include "src/common/status.h"
#include "src/server/server.h"
#include "src/streams/state_access.h"

namespace perfbench {

struct LoadResult {
  uint64_t attempted = 0;
  uint64_t acked = 0;    // responses that were not errors
  uint64_t errors = 0;   // error responses and operations never answered
  uint64_t not_found = 0;
  gadget::LatencyHistogram latency_ns;
  gadget::LatencyHistogram late_ns;  // open loop: actual send - scheduled send
  uint64_t outstanding_max = 0;      // most requests in flight on one connection
  double seconds = 0;                // phase wall time
};

// How a phase sends: a closed loop keeps `window` requests in flight per
// connection; an open loop (rate_ops_s > 0) sends on a fixed schedule.
struct Pace {
  int window = 1;
  double rate_ops_s = 0;
};

// Appends the single-op request frame for `a` with correlation id `id`; the
// value is the evaluator's synthetic bytes. `key` and `value` are scratch
// buffers the caller keeps across calls.
void AppendOpRequest(const gadget::StateAccess& a, uint32_t id, std::string* key,
                     std::string* value, std::string* out);

// Starts the server with every thread it spawns (reactors, shard workers,
// engine background threads) confined to all but one of this process's CPUs.
// Generator phases run on the CPU left over, so on a small box the load
// generator never competes with the system under test for a core. With a
// single CPU nothing is pinned.
gadget::StatusOr<std::unique_ptr<gadget::wire::Server>> StartServer(
    const gadget::wire::ServerOptions& options);

class Generator {
 public:
  // Connects `conns` sockets to 127.0.0.1:`port` and partitions `trace` over
  // them. `trace` must outlive the generator.
  static gadget::StatusOr<std::unique_ptr<Generator>> Connect(
      uint16_t port, int conns, const std::vector<gadget::StateAccess>* trace);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  // Sends trace positions [begin, end) paced by `pace` and waits for every
  // response. `rec`, when set, receives a client span per request.
  gadget::Status RunPhase(size_t begin, size_t end, const Pace& pace, LoadResult* out,
                          SpanRecorder* rec);

  // Reads keys back over connection 0 with GET frames (for the oracle).
  Oracle::BatchReader Reader();

 private:
  struct Conn;
  Generator() = default;

  const std::vector<gadget::StateAccess>* trace_ = nullptr;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
