// Tracing for the benchmark's --trace 1 runs: a KVStore decorator that times
// every call into the engine, plus a span recorder with per-thread buffers.
//
// Counts and call durations cover EVERY call (two steady_clock reads per
// call); full spans (name, start, end, parent span, request id) are kept for
// every Nth call per thread only, so the in-memory span log stays small.
// Nothing is written out until WriteCsv at the end of the run.
#ifndef PERFBENCH_TRACED_STORE_H_
#define PERFBENCH_TRACED_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/common/histogram.h"
#include "src/stores/kvstore.h"

namespace perfbench {

// Calls the decorator tells apart. kGetMiss is a Get that returned NotFound.
enum class Call : int {
  kGet = 0,
  kGetMiss,
  kPut,
  kMerge,
  kDelete,
  kRmw,
  kWrite,
  kMultiGet,
  kOther,    // Flush / Checkpoint / Close
  kRequest,  // a client request of the served workload
  kCount,
};

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by the spans of one request
  uint32_t thread = 0;
  std::string name;
  uint64_t start_ns = 0;  // since the recorder's epoch
  uint64_t end_ns = 0;
};

// Per-call-kind totals, merged over threads.
struct CallTotals {
  uint64_t count[static_cast<int>(Call::kCount)] = {};
  uint64_t ns[static_cast<int>(Call::kCount)] = {};
  gadget::LatencyHistogram hist[static_cast<int>(Call::kCount)];

  double MeanNs(Call c) const;
  double P99Ns(Call c) const;
  uint64_t TotalNs() const;
};

class SpanRecorder {
 public:
  // Keeps a full span for every `sample_every`-th call per thread.
  explicit SpanRecorder(uint64_t sample_every);
  ~SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  uint64_t NowNs() const { return Nanos(epoch_, Clock::now()); }
  uint64_t ToNs(Clock::time_point t) const { return t < epoch_ ? 0 : Nanos(epoch_, t); }
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // The span new store-call spans attach to (a phase span on another thread:
  // ReplaySharded runs its shards on threads it creates itself).
  void set_parent(uint64_t id) { parent_.store(id, std::memory_order_relaxed); }
  uint64_t parent() const { return parent_.load(std::memory_order_relaxed); }

  // Always kept (phase-level spans are few).
  void AddSpan(Span span);
  // Counts one call of kind `c` lasting [start_ns, end_ns) on this thread and
  // keeps its span when this thread's call counter hits the sampling stride.
  // `request` 0 stands for the thread's call sequence number (in-process
  // calls carry no request id of their own).
  void AddCall(Call c, const char* name, uint64_t start_ns, uint64_t end_ns,
               uint64_t request = 0);

  CallTotals Totals() const;
  std::vector<Span> Spans() const;
  bool WriteCsv(const std::string& path) const;

 private:
  struct ThreadBuffer;
  ThreadBuffer* Local();

  const uint64_t sample_every_;
  const uint64_t instance_;
  const Clock::time_point epoch_ = Clock::now();
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> parent_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mu_
  std::vector<Span> phase_spans_;                        // guarded by mu_
};

// Forwards every KVStore virtual to `inner`, timing each call into `rec`.
class TracedStore : public gadget::KVStore {
 public:
  TracedStore(gadget::KVStore* inner, SpanRecorder* rec) : inner_(inner), rec_(rec) {}

  using gadget::KVStore::Get;
  using gadget::KVStore::MultiGet;

  gadget::Status Put(std::string_view key, std::string_view value) override;
  gadget::Status Get(std::string_view key, std::string* value,
                     const gadget::ReadOptions& options) override;
  gadget::Status Merge(std::string_view key, std::string_view operand) override;
  gadget::Status Delete(std::string_view key) override;
  gadget::Status ReadModifyWrite(std::string_view key, std::string_view operand) override;
  gadget::Status Write(const gadget::WriteBatch& batch) override;
  gadget::Status MultiGet(const std::vector<std::string>& keys, std::vector<std::string>* values,
                          std::vector<gadget::Status>* statuses,
                          const gadget::ReadOptions& options) override;
  bool supports_merge() const override { return inner_->supports_merge(); }
  gadget::Status Flush() override;
  gadget::StatusOr<gadget::CheckpointInfo> Checkpoint(
      const std::string& dir, const gadget::CheckpointOptions& options) override;
  gadget::Status Close() override;
  gadget::StoreStats stats() const override { return inner_->stats(); }
  std::string name() const override { return inner_->name(); }

 private:
  gadget::KVStore* const inner_;
  SpanRecorder* const rec_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_STORE_H_
